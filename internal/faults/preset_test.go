package faults_test

import (
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/experiments"
	"github.com/gfcsim/gfc/internal/faults"
	"github.com/gfcsim/gfc/internal/topology"
)

// TestPresetTopologies pins where each preset compiles: every one on the
// fig9 ring, and the two that name the ring link S1-S2 fail on a fat-tree
// with an error naming that pattern.
func TestPresetTopologies(t *testing.T) {
	ring := experiments.RingTopology(1)
	fatTree := topology.FatTree(4, topology.DefaultLinkParams())
	ringOnly := map[string]bool{"resume-loss": true, "feedback-loss": true}
	for _, name := range faults.PresetNames() {
		spec, err := faults.Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := spec.Compile(ring); err != nil {
			t.Errorf("%s on the ring: %v", name, err)
		}
		_, err = spec.Compile(fatTree)
		switch {
		case !ringOnly[name] && err != nil:
			t.Errorf("%s on a fat-tree: %v", name, err)
		case ringOnly[name] && err == nil:
			t.Errorf("%s compiled on a fat-tree, which has no S1-S2 link", name)
		case ringOnly[name] && !strings.Contains(err.Error(), `"S1-S2"`):
			t.Errorf("%s on a fat-tree: error %q does not name the link pattern", name, err)
		}
	}
}
