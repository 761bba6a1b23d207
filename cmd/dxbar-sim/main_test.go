package main

import "testing"

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name         string
		ckptInterval uint64
		ckptDir      string
		ledgerReuse  bool
		ledgerDir    string
		traceOut     string
		trace        int
		ok           bool
	}{
		{name: "defaults", ok: true},
		{name: "checkpointing", ckptInterval: 100, ckptDir: "ckpt", ok: true},
		{name: "checkpoint dir alone", ckptDir: "ckpt", ok: true},
		{name: "interval without dir", ckptInterval: 100},
		{name: "ledger reuse", ledgerReuse: true, ledgerDir: "ledger", ok: true},
		{name: "reuse without ledger", ledgerReuse: true},
		{name: "trace out", traceOut: "t.json", trace: 4096, ok: true},
		{name: "trace-out without trace", traceOut: "t.json"},
	} {
		err := validate(tc.ckptInterval, tc.ckptDir, tc.ledgerReuse, tc.ledgerDir, tc.traceOut, tc.trace)
		if (err == nil) != tc.ok {
			t.Errorf("%s: validate = %v, want ok = %v", tc.name, err, tc.ok)
		}
	}
}
