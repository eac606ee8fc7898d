package main

// seed1SHA256 pins the full-size outputs at seed 1: the figure suite's
// standard output (the same bytes from both engines) and dpgrun -all on
// bigtrace's 600-round mgr trace. A change that moves them moves the
// committed goldens too.
var seed1SHA256 = map[string]string{
	"suite":          "f37eb52086fb6912dc7e2279910d5884d7aa33c080da6bf6bdbef7ddd6867029",
	"suite-tracedir": "f37eb52086fb6912dc7e2279910d5884d7aa33c080da6bf6bdbef7ddd6867029",
	"bigtrace":       "3bcdd2f71a2db48506e3482c5ce25d478c384ccea4b05f04fdb190057243f9f5",
}
