//go:build race

package translator

const raceEnabled = true
