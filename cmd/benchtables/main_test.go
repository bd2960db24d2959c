package main

import (
	"strings"
	"testing"
)

func TestCheckTable(t *testing.T) {
	for _, name := range []string{"1", "snb", "appb", "sdmc", "ablation", "all"} {
		if err := checkTable(name); err != nil {
			t.Errorf("checkTable(%q) = %v, want nil", name, err)
		}
	}
	for _, name := range []string{"", "none", "bogus", "SDMC", "1 "} {
		err := checkTable(name)
		if err == nil {
			t.Errorf("checkTable(%q) accepted an unknown table", name)
			continue
		}
		if !strings.Contains(err.Error(), "1|snb|appb|sdmc|ablation|all") {
			t.Errorf("checkTable(%q) error %q does not list the valid names", name, err)
		}
	}
}
