// Package knobuser is golden input for the deadknob analyzer: the writes
// here, outside the declaring package, keep knobdecl's knobs alive.
package knobuser

import (
	"flag"

	"knobdecl"
)

// Build sets knobs every way the analyzer counts.
func Build() *knobdecl.Config {
	cfg := &knobdecl.Config{Literal: 1}
	cfg.Assigned = 3
	flag.IntVar(&cfg.Address, "address", 0, "")
	cfg.Counter++
	_ = knobdecl.Settings{Free: 2}
	return cfg
}
