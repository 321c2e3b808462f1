package main

import (
	"bytes"
	"os"
	"testing"

	"earth/internal/pin"
)

func TestMain(m *testing.M) { os.Exit(pin.Main(m)) }

// TestOutput pins what the example prints.
func TestOutput(t *testing.T) {
	var out bytes.Buffer
	run(&out)
	pin.Bytes(t, "stdout", out.Bytes())
}
