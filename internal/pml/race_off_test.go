//go:build !race

package pml

const raceEnabled = false
