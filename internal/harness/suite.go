package harness

// Experiment is one entry of the suite: an id and the run at a scale
// factor (scale 1 is cmbench's default workload size).
type Experiment struct {
	ID  string
	Run func(scale int) Table
}

// Suite lists every experiment in cmbench's print order.  Every table
// is a pure function of the scale (no wall-clock column), and
// TestGoldenExperiments holds each scale-1 table byte for byte against
// testdata/<id>.golden.
var Suite = []Experiment{
	{"E1", func(s int) Table { return E1(100 * s) }},
	{"E2", func(s int) Table { return E2(60 * s) }},
	{"E3", func(s int) Table { return E3(150 * s) }},
	{"E4", func(s int) Table { return E4(200 * s) }},
	{"E5", func(s int) Table { return E5(8 * s) }},
	{"E6", func(s int) Table { return E6(10 * s) }},
	{"E7", func(s int) Table { return E7(4 * s) }},
	{"E8", func(int) Table { return E8() }},
	{"E9", func(s int) Table { return E9(60 * s) }},
	{"E10", func(s int) Table { return E10(20 * s) }},
	{"E11", func(s int) Table { return E11(4 * s) }},
	{"E12", func(s int) Table { return E12(3 * s) }},
	{"E13", func(s int) Table { return E13(3 * s) }},
	{"E15", func(s int) Table { return E15(60 * s) }},
	{"E17", func(s int) Table { return E17(2000 * s) }},
	{"E18", func(s int) Table { return E18(40000*s, 20000*s) }},
	{"F1", func(s int) Table { return F1(100 * s) }},
	{"F2", func(s int) Table { return F2(30 * s) }},
}
