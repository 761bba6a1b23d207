package main

import "testing"

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		fig, quality string
		ok           bool
	}{
		{"all", "quick", true},
		{"table3", "full", true},
		{"5", "quick", true},
		{"12", "full", true},
		{"13", "quick", false}, // used to exit 0 with no output
		{"fig7", "quick", false},
		{"", "quick", false},
		{"7", "fast", false}, // used to run as quick
		{"7", "", false},
	} {
		err := validate(tc.fig, tc.quality)
		if (err == nil) != tc.ok {
			t.Errorf("validate(%q, %q) = %v, want ok = %v", tc.fig, tc.quality, err, tc.ok)
		}
	}
}
