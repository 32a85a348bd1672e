package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnhittableDescriptorRejected: a descriptor that can hit nothing is
// an error that prints nothing, not a run reported as Masked.
func TestUnhittableDescriptorRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-warp", "-1"},
		{"-warp", "48"},
		{"-warp", "99999"},
		{"-loc", "4"},
		{"-loc", "9"},
		{"-loc", "-3"},
		{"-model", "IMD", "-loc", "3"},
		{"-model", "IAT", "-loc", "2"},
		{"-context", "-5"},
		{"-lanes", "0x1FFFFFFFF"},
		{"-mask", "0x100000001"},
	} {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("run %v: err = nil, want a rejection", args)
		}
		if buf.Len() != 0 {
			t.Errorf("run %v printed %q", args, buf.String())
		}
	}
}

func TestValidRun(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-model", "IRA", "-warp", "47", "-loc", "3", "-context", "0", "-lanes", "0xFFFFFFFF"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "app=vectoradd") {
		t.Errorf("output does not start with app=vectoradd:\n%s", buf.String())
	}
}
