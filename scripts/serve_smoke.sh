#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the faultsimd daemon.
#
# Part 1 boots a single-node daemon on a scratch state directory, submits
# a tiny campaign over HTTP, waits for it to finish, fetches artifacts
# and metrics, then shuts the daemon down.
#
# Part 2 boots a cluster — one coordinator, two workers — submits the
# same campaign, kill -9s one worker while it holds a lease, and asserts
# the campaign still completes with artifacts byte-identical to part 1's
# single-node goldens (lease expiry reassigns the dead worker's chunks).
# The kill lands mid-campaign by construction: worker 1 sends its first
# lease poll to a coordinator frozen with SIGSTOP, is itself frozen before
# the coordinator resumes and grants it the profile chunk, and worker 2
# starts only once the coordinator shows that lease held.
#
# Admission under a burst is a Go test, not a smoke step:
# TestBurstAdmissionOnCluster in cmd/faultsimd.
#
# Exits non-zero if any step fails. Invoked by `make serve-smoke`.
set -eu

cd "$(dirname "$0")/.."

ADDR="127.0.0.1:18091"
BASE="http://$ADDR"
DATA="$(mktemp -d)"
PID=""; CPID=""; W1PID=""; W2PID=""
# Signal only the daemons that were started (dash's kill stops at an
# empty argument and would signal none of them) and wait for them, so no
# faultsimd outlives this script; each exits within its own -grace.
# A stopped daemon only acts on TERM once continued, hence the CONT.
cleanup() {
	for p in $PID $CPID $W1PID $W2PID; do
		kill "$p" 2>/dev/null || true
		kill -CONT "$p" 2>/dev/null || true
	done
	for p in $PID $CPID $W1PID $W2PID; do wait "$p" 2>/dev/null || true; done
	rm -rf "$DATA"
}
trap cleanup EXIT
trap 'exit 1' INT TERM

fetch() { # fetch URL [curl-extra-args...]
	url="$1"; shift
	if command -v curl >/dev/null 2>&1; then
		curl -sSf "$@" "$url"
	else
		wget -qO- "$url"
	fi
}

echo "==> build faultsimd"
go build -o "$DATA/faultsimd" ./cmd/faultsimd

echo "==> start daemon on $ADDR"
"$DATA/faultsimd" -addr "$ADDR" -data "$DATA/state" -grace 5s &
PID=$!

for i in $(seq 1 50); do
	if fetch "$BASE/healthz" >/dev/null 2>&1; then break; fi
	[ "$i" -eq 50 ] && { echo "daemon never became healthy" >&2; exit 1; }
	sleep 0.1
done

echo "==> submit tiny campaign"
SPEC='{"seed":7,"max_patterns":16,"injections":2,"apps":["vectoradd"],"profiling":["vectoradd","gemm"]}'
JOB=$(fetch "$BASE/jobs" -X POST -d "$SPEC")
ID=$(printf '%s' "$JOB" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -n1)
[ -n "$ID" ] || { echo "no job id in response: $JOB" >&2; exit 1; }
echo "    job $ID"

echo "==> wait for completion"
for i in $(seq 1 300); do
	STATE=$(fetch "$BASE/jobs/$ID" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -n1)
	case "$STATE" in
	done) break ;;
	failed) echo "job failed:" >&2; fetch "$BASE/jobs/$ID" >&2; exit 1 ;;
	esac
	[ "$i" -eq 300 ] && { echo "job never finished (state: $STATE)" >&2; exit 1; }
	sleep 0.2
done

echo "==> fetch artifacts + metrics"
ARTS="software.json gate_wsc.json gate_fetch.json gate_decoder.json"
mkdir -p "$DATA/golden"
for a in $ARTS; do
	fetch "$BASE/jobs/$ID/artifacts/$a" > "$DATA/golden/$a"
	[ -s "$DATA/golden/$a" ] || { echo "artifact $a is empty" >&2; exit 1; }
done
METRICS=$(fetch "$BASE/metrics")
printf '%s' "$METRICS" | grep -q '"cache_puts": 5' || {
	echo "unexpected metrics: $METRICS" >&2; exit 1
}
printf '%s' "$METRICS" | grep -q '"registry"' || {
	echo "metrics JSON is missing the registry snapshot" >&2; exit 1
}

echo "==> prometheus exposition"
PROM=$(fetch "$BASE/metrics?format=prometheus")
printf '%s\n' "$PROM" | grep -q '^store_puts_total ' || {
	echo "prometheus exposition missing store_puts_total:" >&2
	printf '%s\n' "$PROM" | head -20 >&2; exit 1
}
# Every line must be a comment or a well-formed sample line.
BAD=$(printf '%s\n' "$PROM" |
	grep -vE '^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (\+Inf|-Inf|NaN|[0-9.eE+-]+))$' || true)
[ -z "$BAD" ] || { echo "malformed exposition lines:" >&2; printf '%s\n' "$BAD" >&2; exit 1; }

echo "==> flight-recorder trace"
TRACE=$(fetch "$BASE/debug/trace")
printf '%s' "$TRACE" | grep -q '"traceEvents"' || {
	echo "trace export missing traceEvents: $TRACE" >&2; exit 1
}
printf '%s' "$TRACE" | grep -q "\"job:$ID\"" || {
	echo "trace has no span for job $ID" >&2; exit 1
}
if command -v python3 >/dev/null 2>&1; then
	printf '%s' "$TRACE" | python3 -m json.tool >/dev/null || {
		echo "trace export is not valid JSON" >&2; exit 1
	}
fi

echo "==> graceful shutdown (SIGTERM)"
kill -TERM "$PID"
for i in $(seq 1 100); do
	kill -0 "$PID" 2>/dev/null || break
	[ "$i" -eq 100 ] && { echo "daemon ignored SIGTERM" >&2; exit 1; }
	sleep 0.1
done
PID=""

# --- Part 2: cluster smoke -------------------------------------------------

CADDR="127.0.0.1:18092"
CBASE="http://$CADDR"
W1ADDR="127.0.0.1:18093"
W2ADDR="127.0.0.1:18094"

# ledger FIELD: one counter of the /cluster/workers ledger block.
ledger() {
	fetch "$CBASE/cluster/workers" | sed -n "s/.*\"$1\": *\([0-9]*\).*/\1/p"
}
# w1_leases: the lease IDs the coordinator shows smoke-w1 holding.
w1_leases() {
	fetch "$CBASE/cluster/workers" | tr '{' '\n' |
		sed -n '/"name": *"smoke-w1"/s/.*"active_leases": *\[\([^]]*\)\].*/\1/p'
}

echo "==> start coordinator on $CADDR (lease TTL 2s)"
"$DATA/faultsimd" -role coordinator -addr "$CADDR" -data "$DATA/coord" \
	-lease-ttl 2s -grace 5s &
CPID=$!
for i in $(seq 1 50); do
	if fetch "$CBASE/readyz" >/dev/null 2>&1; then break; fi
	[ "$i" -eq 50 ] && { echo "coordinator never became ready" >&2; exit 1; }
	sleep 0.2
done

echo "==> submit the same campaign to the coordinator"
JOB=$(fetch "$CBASE/jobs" -X POST -d "$SPEC")
CID=$(printf '%s' "$JOB" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -n1)
[ -n "$CID" ] || { echo "no job id in response: $JOB" >&2; exit 1; }
echo "    job $CID"
for i in $(seq 1 100); do
	[ "$(ledger pending)" = 1 ] && break
	[ "$i" -eq 100 ] && { echo "profile chunk never offered" >&2; exit 1; }
	sleep 0.05
done

echo "==> worker 1 leases the profile chunk, frozen before it can compute"
kill -STOP "$CPID"
"$DATA/faultsimd" -role worker -join "$CBASE" -addr "$W1ADDR" \
	-data "$DATA/w1" -worker-name smoke-w1 &
W1PID=$!
for i in $(seq 1 50); do
	if fetch "http://$W1ADDR/healthz" >/dev/null 2>&1; then break; fi
	[ "$i" -eq 50 ] && { echo "worker 1 never came up" >&2; exit 1; }
	sleep 0.1
done
# Worker 1 polls for a lease as soon as it runs, and the poll waits on
# the frozen coordinator; a second covers that first poll's send.
sleep 1
kill -STOP "$W1PID"
kill -CONT "$CPID"
for i in $(seq 1 50); do
	[ -n "$(w1_leases)" ] && break
	[ "$i" -eq 50 ] && { echo "frozen worker 1 holds no lease" >&2; exit 1; }
	sleep 0.1
done
echo "    smoke-w1 holds $(w1_leases)"

echo "==> start worker 2"
"$DATA/faultsimd" -role worker -join "$CBASE" -addr "$W2ADDR" \
	-data "$DATA/w2" -worker-name smoke-w2 &
W2PID=$!
for i in $(seq 1 50); do
	if fetch "http://$W2ADDR/readyz" >/dev/null 2>&1; then break; fi
	[ "$i" -eq 50 ] && { echo "worker 2 never became ready" >&2; exit 1; }
	sleep 0.2
done

echo "==> kill -9 worker 1 mid-campaign"
kill -9 "$W1PID" 2>/dev/null || true
wait "$W1PID" 2>/dev/null || true
W1PID=""

echo "==> wait for completion on the surviving worker"
for i in $(seq 1 300); do
	STATE=$(fetch "$CBASE/jobs/$CID" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -n1)
	case "$STATE" in
	done) break ;;
	failed) echo "cluster job failed:" >&2; fetch "$CBASE/jobs/$CID" >&2; exit 1 ;;
	esac
	[ "$i" -eq 300 ] && { echo "cluster job never finished (state: $STATE)" >&2; exit 1; }
	sleep 0.2
done

echo "==> artifacts must be byte-identical to the single-node goldens"
for a in $ARTS; do
	fetch "$CBASE/jobs/$CID/artifacts/$a" > "$DATA/cluster-$a"
	cmp -s "$DATA/golden/$a" "$DATA/cluster-$a" || {
		echo "artifact $a differs between single-node and cluster runs" >&2; exit 1
	}
done

echo "==> cluster view lists the surviving worker"
WORKERS=$(fetch "$CBASE/cluster/workers")
REASSIGNED=$(ledger reassigned)
[ -n "$REASSIGNED" ] && [ "$REASSIGNED" -gt 0 ] || {
	echo "the dead worker's lease was never reassigned: $WORKERS" >&2; exit 1
}
echo "    reassigned $REASSIGNED"
printf '%s' "$WORKERS" | grep -q '"smoke-w2"' || {
	echo "surviving worker missing from /cluster/workers: $WORKERS" >&2; exit 1
}

echo "==> per-worker completion accounting is live"
# One JSON object per line; the killed worker's row may legitimately read 0.
W2DONE=$(printf '%s' "$WORKERS" | tr '{' '\n' |
	sed -n '/"name": *"smoke-w2"/s/.*"completed": *\([0-9]*\).*/\1/p')
[ -n "$W2DONE" ] && [ "$W2DONE" -gt 0 ] || {
	echo "surviving worker has no completions in /cluster/workers: $WORKERS" >&2; exit 1
}
echo "    smoke-w2 completed $W2DONE chunks"

echo "==> each process serves its own metrics"
WPROM=$(fetch "http://$W2ADDR/metrics?format=prometheus")
COMPUTED=$(printf '%s\n' "$WPROM" | awk '$1 == "cluster_chunks_computed_total" {print $2}')
[ -n "$COMPUTED" ] && [ "$COMPUTED" != "0" ] || {
	echo "smoke-w2's own exposition has no computed chunks" >&2
	printf '%s\n' "$WPROM" | grep '^cluster' >&2; exit 1
}
echo "    smoke-w2 cluster_chunks_computed_total $COMPUTED"
CPROM=$(fetch "$CBASE/metrics?format=prometheus")
printf '%s\n' "$CPROM" | grep -q '^cluster_worker_completed_total{worker="smoke-w2"} [1-9]' || {
	echo "coordinator exposition missing the surviving worker's completion counter" >&2
	printf '%s\n' "$CPROM" | grep '^cluster' >&2; exit 1
}

echo "==> stitched distributed trace (worker spans under the coordinator's job root)"
CTRACE=$(fetch "$CBASE/debug/trace?format=ndjson")
printf '%s\n' "$CTRACE" | grep -q "\"name\":\"job:$CID\"" || {
	echo "coordinator trace has no root span for job $CID" >&2; exit 1
}
printf '%s\n' "$CTRACE" | grep '"name":"chunk:' | grep -q '"origin":"smoke-w' || {
	echo "coordinator trace has no worker-origin chunk spans (stitching broken)" >&2
	printf '%s\n' "$CTRACE" | head -10 >&2; exit 1
}

echo "==> shut the cluster down"
kill -TERM "$W2PID" "$CPID" 2>/dev/null || true
for i in $(seq 1 100); do
	if ! kill -0 "$CPID" 2>/dev/null && ! kill -0 "$W2PID" 2>/dev/null; then break; fi
	[ "$i" -eq 100 ] && { echo "cluster ignored SIGTERM" >&2; exit 1; }
	sleep 0.1
done
CPID=""; W2PID=""

echo "serve-smoke: OK (single-node + cluster)"
