package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadInputExits2: a network, sample set or machine of no size is the
// user's error — one "nnsim: …" line on stderr and status 2 before
// anything is built or printed, never a Go stack trace.
func TestBadInputExits2(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string // substring of the message
	}{
		{"no units", []string{"-units", "0"}, "-units"},
		{"negative units", []string{"-units", "-4"}, "-units"},
		{"no nodes", []string{"-nodes", "0"}, "-nodes"},
		{"negative nodes", []string{"-nodes", "-3"}, "-nodes"},
		{"no samples", []string{"-samples", "0"}, "-samples"},
		{"negative epochs", []string{"-epochs", "-1"}, "-epochs"},
		{"bad value among good ones", []string{"-units", "8", "-nodes", "2", "-samples", "-2"}, "-samples"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit status %d, want 2", code)
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "nnsim: ") || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, c.want) {
				t.Errorf("stderr = %q, want one \"nnsim: …%s…\" line", msg, c.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("printed %q before rejecting the input", stdout.String())
			}
		})
	}
}

func TestUnknownFlagExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-bogus") || stdout.Len() != 0 {
		t.Errorf("stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}

// TestGoodRun pins the report of one small run: the simulator is
// deterministic, so the two lines are exact.
func TestGoodRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-units", "33", "-nodes", "5", "-samples", "7", "-epochs", "3"}
	if code := run(args, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("exit status %d, stderr %q", code, stderr.String())
	}
	const want = "sequential training: 3 epochs, final epoch loss 1.2134\n" +
		"unit parallelism: 2.421ms/sample on 1 node, 612.456us/sample on 5 nodes (speedup 4.0)\n"
	if stdout.String() != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", stdout.String(), want)
	}
}
