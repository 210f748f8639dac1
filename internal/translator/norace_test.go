//go:build !race

package translator

const raceEnabled = false
