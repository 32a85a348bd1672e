#!/bin/sh
# stragglers.sh — fail if a daemon, benchmark, test binary or go command
# is still running.
#
# Everything in this repository runs in the foreground, so any such
# process alive when this runs is a straggler, of verify.sh or of whatever
# ran before it, and has to be stopped first. Prints the processes and
# exits 1 if there are any; prints nothing and exits 0 otherwise. Run it
# as `make stragglers`. A `go run` child whose go parent was killed runs on
# as go-buildNNN/b001/exe/<name>, and a killed `go vet`/`go build` leaves
# its toolchain children (compile, link, vet) running. The brackets keep
# the probing shell's own command line from matching, and the script's
# ancestors (the make or shell that ran it, whose command line may name
# a pattern) are dropped: they are still running by definition.
set -eu

ancestors=" "
pid=$$
while [ -n "$pid" ] && [ "$pid" -gt 1 ]; do
	ancestors="$ancestors$pid "
	pid=$(ps -o ppid= -p "$pid" | tr -d ' ')
done

stragglers=$(pgrep -fa '[f]aultsimd|bench_build/[b]enchmark|[.]test|go [r]un|go [t]est|go [v]et|go [b]uild|go [l]ist|[g]o-build[0-9]*/b[0-9]*/exe/|pkg/tool/[^ ]*/([c]ompile|[l]ink|[v]et)' |
	while read -r pid cmd; do
		case "$ancestors" in
		*" $pid "*) ;;
		*) echo "$pid $cmd" ;;
		esac
	done)
if [ -n "$stragglers" ]; then
	echo "processes left running:" >&2
	echo "$stragglers" >&2
	exit 1
fi
