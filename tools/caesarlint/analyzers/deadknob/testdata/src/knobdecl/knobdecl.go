// Package knobdecl is golden input for the deadknob analyzer: it declares
// knobs, some set by knobuser, one by this package's own test file, and
// some by nothing but this package's non-test code.
package knobdecl

import "time"

// Config is a knob struct.
type Config struct {
	Literal   int           // set by a keyed composite literal in knobuser
	Assigned  time.Duration // set by an assignment in knobuser
	Address   int           // set through &c.Address in knobuser
	Counter   int           // set by ++ in knobuser
	Tested    bool          // set by this package's test file only
	Defaulted int           // want `Config\.Defaulted has no caller`
	Unused    string        // want `Config\.Unused has no caller`
	Waived    int           //caesarlint:allow deadknob -- golden: the waiver suppresses the finding
	hidden    int
}

// ServerOptions matches by its Options suffix.
type ServerOptions struct {
	Port int // want `ServerOptions\.Port has no caller`
}

// Settings is neither a Config nor an Options: its fields are no knobs.
type Settings struct {
	Free int
}

// config is unexported: its fields are no knobs.
type config struct {
	Free int
}

func (c Config) withDefaults() Config {
	if c.Defaulted == 0 {
		c.Defaulted = 7
	}
	c.Unused = "set here, in the declaring package, which does not count"
	c.hidden = 1
	return c
}

// Use keeps the unexported declarations referenced.
func Use(c Config) int { return c.withDefaults().Defaulted + config{Free: 1}.Free }
