package harness

// Experiment is one entry of the suite: an id and the run at a scale
// factor (scale 1 is cmbench's default workload size).
type Experiment struct {
	ID  string
	Run func(scale int) Table
	// Golden marks experiments whose table is a pure function of the
	// scale: virtual clock only, no wall-clock column.  Their scale-1
	// output is committed under testdata/ and TestGoldenExperiments
	// holds every change to it.
	Golden bool
}

// Suite lists every experiment in cmbench's print order.
var Suite = []Experiment{
	{"E1", func(s int) Table { return E1(100 * s) }, true},
	{"E2", func(s int) Table { return E2(60 * s) }, true},
	{"E3", func(s int) Table { return E3(150 * s) }, true},
	{"E4", func(s int) Table { return E4(200 * s) }, true},
	{"E5", func(s int) Table { return E5(8 * s) }, true},
	{"E6", func(s int) Table { return E6(10 * s) }, true},
	{"E7", func(s int) Table { return E7(4 * s) }, true},
	{"E8", func(int) Table { return E8() }, true},
	{"E9", func(s int) Table { return E9(60 * s) }, true},
	{"E10", func(s int) Table { return E10(20 * s) }, true},
	{"E11", func(s int) Table { return E11(4 * s) }, true},
	{"E12", func(s int) Table { return E12(3 * s) }, true},
	{"E13", func(s int) Table { return E13(3 * s) }, true},
	{"E15", func(s int) Table { return E15(60 * s) }, false},
	{"E17", func(s int) Table { return E17(2000 * s) }, false},
	{"E18", func(s int) Table { return E18(40000*s, 20000*s) }, false},
	{"F1", func(s int) Table { return F1(100 * s) }, true},
	{"F2", func(s int) Table { return F2(30 * s) }, false},
}
