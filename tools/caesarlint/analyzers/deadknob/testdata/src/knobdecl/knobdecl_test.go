package knobdecl

var _ = Config{Tested: true}
