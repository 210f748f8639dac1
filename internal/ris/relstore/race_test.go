//go:build race

package relstore

const raceEnabled = true
