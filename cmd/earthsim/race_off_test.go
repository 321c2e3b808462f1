//go:build !race

package main

var raceFlag []string
