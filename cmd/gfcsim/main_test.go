package main

import (
	"strings"
	"testing"

	"github.com/gfcsim/gfc/internal/scenario"
)

// TestUnknownScenarioListsNames pins the -scenario error UX: a typo'd name
// must come back with the full registry so the user can pick without a
// second -list invocation.
func TestUnknownScenarioListsNames(t *testing.T) {
	old := *scenarioName
	defer func() { *scenarioName = old }()
	*scenarioName = "definitely-not-registered"
	err := runScenario()
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	for _, name := range scenario.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list %q: %v", name, err)
		}
	}
}

// TestCheckMetricsOut pins which runs accept -metrics-out: the experiments
// that attach a registry and -scenario (empty exp). Every other experiment
// must reject the flag, naming the supported ones, instead of ignoring it.
func TestCheckMetricsOut(t *testing.T) {
	cases := []struct {
		exp, out string
		ok       bool
	}{
		{"fig9", "m.json", true},
		{"fig10", "m.csv", true},
		{"fig12", "m.json", true},
		{"fig13", "m.json", true},
		{"fig14", "m.json", true},
		{"", "m.json", true},
		{"fig5", "", true},
		{"table1", "", true},
		{"fig5", "m.json", false},
		{"fig15", "m.json", false},
		{"fig16", "m.json", false},
		{"fig17", "m.json", false},
		{"fig18", "m.json", false},
		{"fig19", "m.json", false},
		{"fig20", "m.json", false},
		{"table1", "m.json", false},
		{"faults", "m.json", false},
	}
	for _, c := range cases {
		err := checkMetricsOut(c.exp, c.out)
		if (err == nil) != c.ok {
			t.Errorf("checkMetricsOut(%q, %q) = %v, want ok=%v", c.exp, c.out, err, c.ok)
			continue
		}
		if err != nil {
			for _, want := range []string{c.exp, "fig9, fig10, fig12, fig13, fig14", "-scenario"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("checkMetricsOut(%q): %v does not name %q", c.exp, err, want)
				}
			}
		}
	}
}

func TestSplitComma(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"4,8", []string{"4", "8"}},
		{"4", []string{"4"}},
		{"", nil},
		{"4,8,16", []string{"4", "8", "16"}},
		{"4,", []string{"4"}},
	}
	for _, c := range cases {
		got := splitComma(c.in)
		if len(got) != len(c.want) {
			t.Errorf("splitComma(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("splitComma(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}
