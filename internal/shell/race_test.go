//go:build race

package shell

const raceEnabled = true
