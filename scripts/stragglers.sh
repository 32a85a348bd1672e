#!/bin/sh
# stragglers.sh — fail if a daemon, benchmark, test binary or go command
# is still running.
#
# Everything in this repository runs in the foreground, so any such
# process alive when this runs is a straggler, of verify.sh or of whatever
# ran before it, and has to be stopped first. Prints the processes and
# exits 1 if there are any; prints nothing and exits 0 otherwise. Run it
# as `make stragglers`. The brackets keep the probing shell's own command
# line from matching.
set -eu

stragglers=$(pgrep -fa '[f]aultsimd|bench_build/[b]enchmark|[.]test|go [r]un|go [t]est' || true)
if [ -n "$stragglers" ]; then
	echo "processes left running:" >&2
	echo "$stragglers" >&2
	exit 1
fi
