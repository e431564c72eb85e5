package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"strings"
	"time"
)

// tracer records spans around the benchmark's calls into each layer and the
// per-layer counts read at the same boundaries. A nil *tracer records
// nothing, so an untraced run pays one nil check per layer call.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // indices of the spans still open, innermost last
	layer  map[string]float64
}

// span is one timed call into a layer. Times are seconds since the start of
// the iteration; Parent indexes the enclosing span, -1 at the root.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), layer: map[string]float64{}}
}

// span opens a span named name and returns the function that closes it.
// Spans nest: close them in reverse order of opening.
func (t *tracer) span(name string) func() {
	if t == nil {
		return func() {}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].End = t.now()
		t.open = t.open[:len(t.open)-1]
	}
}

func (t *tracer) now() float64 { return time.Since(t.origin).Seconds() }

// total sums the durations of every span named name.
func (t *tracer) total(name string) float64 {
	var s float64
	for _, sp := range t.spans {
		if sp.Name == name {
			s += sp.End - sp.Start
		}
	}
	return s
}

// set records a per-layer metric.
func (t *tracer) set(name string, v float64) {
	if t != nil {
		t.layer[name] = v
	}
}

// heapSampler tracks the peak Go heap (bytes in live and not yet swept
// objects, the runtime's HeapAlloc) by polling runtime/metrics, which does
// not stop the world.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
	sample     []metrics.Sample
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		sample: []metrics.Sample{{Name: heapMetric}},
	}
	h.read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.read()
			}
		}
	}()
	return h
}

func (h *heapSampler) read() {
	metrics.Read(h.sample)
	if v := h.sample[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// Stop ends sampling, takes a last reading and returns the peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	h.read()
	return h.peak
}

// modulePrefix is the import-path prefix of the packages CPU time is
// attributed to.
const modulePrefix = "github.com/gfcsim/gfc/internal/"

// cpuLayers are the internal packages reported with their own CPU share.
// Samples in any other internal package count as "other"; samples with no
// internal frame at all (GC workers, the scheduler, this benchmark's own
// bookkeeping) count as "runtime.gc".
var cpuLayers = []string{
	"analytic", "cbd", "core", "deadlock", "eventsim", "experiments",
	"faults", "flowcontrol", "fluid", "metrics", "netsim", "routing",
	"runner", "scenario", "stats", "topology", "units", "workload",
}

// attribute names the layer a sample belongs to: the innermost frame in one
// of this module's internal packages. Standard-library frames above it roll
// up into that caller, so JSON encoding inside the checkpoint store counts
// as runner. frames run innermost first.
func attribute(frames []string) string {
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, modulePrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range cpuLayers {
			if l == pkg {
				return pkg
			}
		}
		return "other"
	}
	return "runtime.gc"
}

// cpuByLayer decodes a gzipped pprof CPU profile and returns the sampled
// CPU nanoseconds attributed to each layer.
func cpuByLayer(profile []byte) (map[string]int64, error) {
	stacks, err := decodeProfile(profile)
	if err != nil {
		return nil, err
	}
	ns := map[string]int64{}
	for _, s := range stacks {
		ns[attribute(s.frames)] += s.weight
	}
	return ns, nil
}

// cpuShares sums per-layer CPU time over several profiles and returns each
// reported layer's share: every one of cpuLayers plus "other" and
// "runtime.gc", summing to 1.
func cpuShares(profiles []map[string]int64) (map[string]float64, error) {
	shares := map[string]float64{"other": 0, "runtime.gc": 0}
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	var total float64
	for _, p := range profiles {
		for l, ns := range p {
			shares[l] += float64(ns)
			total += float64(ns)
		}
	}
	if total == 0 {
		return nil, errors.New("cpu profiles hold no samples")
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares, nil
}

// stack is one profile sample: function names innermost first and the
// sample's CPU time.
type stack struct {
	frames []string
	weight int64
}

// decodeProfile reads the subset of the pprof protobuf format a Go CPU
// profile needs: samples (location ids and values), locations (their lines'
// function ids, innermost inlined call first), functions (name string
// index) and the string table.
func decodeProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{}
		fnName  = map[uint64]uint64{}
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, v, b)
				case 2:
					s.values, err = appendVarints(s.values, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Location.line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Profile.function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("cpu profile: sample without values")
		}
		st := stack{weight: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				idx := fnName[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("cpu profile: function name index %d outside string table", idx)
				}
				st.frames = append(st.frames, strs[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks the protobuf message in buf, calling fn with each field's
// number and either its scalar value (varint and fixed wire types) or its
// bytes (length-delimited).
func eachField(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad field key")
		}
		buf = buf[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("short fixed64")
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || l > uint64(len(buf)-n) {
				return errors.New("bad length")
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("short fixed32")
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, given either one unpacked
// value v (b nil) or a packed run b.
func appendVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("bad packed varint")
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
