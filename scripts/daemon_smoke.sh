#!/usr/bin/env bash
# Loopback smoke for daemon mode: build race-enabled binaries, start two
# squirreld instances, drive them end to end with squirrelctl, then
# SIGTERM both and assert a clean drain.
#
# A daemon registers its corpus only once (a second scenario run against
# the same long-lived daemon would hit ErrRegistered by design), and no
# single subcommand combines the telemetry dump with a watch stream. So
# the first daemon serves `squirrelctl telemetry` (register, boot, health
# drama and telemetry scrape in one run) and the second serves
# `squirrelctl watch`.
set -euo pipefail

cd "$(dirname "$0")/.."
bin="$(mktemp -d)"
daemons=()
trap 'kill "${daemons[@]}" 2>/dev/null || true; rm -rf "$bin"' EXIT

go build -race -o "$bin/squirreld" ./cmd/squirreld
go build -race -o "$bin/squirrelctl" ./cmd/squirrelctl

"$bin/squirreld" -version
"$bin/squirrelctl" version

# start_daemon NAME starts squirreld on ephemeral ports and sets
# ${NAME}_pid, ${NAME}_addr and ${NAME}_maddr. It binds with :0 and
# parses the bound addresses out of the daemon's log: a fixed port would
# collide with a concurrent run (or anything else) on a shared CI host.
# Two listeners log their bound addresses: the control plane's
# "listening on" line and the HTTP surface's "metrics listening on".
start_daemon() {
  local name=$1 log="$bin/$1.log" pid addr= maddr=
  "$bin/squirreld" -addr 127.0.0.1:0 -peers -traced -metrics-addr 127.0.0.1:0 2>"$log" &
  pid=$!
  daemons+=("$pid")
  for _ in $(seq 100); do
    addr="$(sed -n '/metrics listening/!s/.*listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$log" | head -n1)"
    maddr="$(sed -n 's/.*metrics listening on \(127\.0\.0\.1:[0-9]*\).*/\1/p' "$log" | head -n1)"
    [ -n "$addr" ] && [ -n "$maddr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "squirreld ($name) died before listening:"; cat "$log"; exit 1; }
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "no 'listening on' line in squirreld ($name) log:"; cat "$log"; exit 1; }
  [ -n "$maddr" ] || { echo "no 'metrics listening on' line in squirreld ($name) log:"; cat "$log"; exit 1; }
  echo "squirreld ($name) bound $addr (metrics $maddr)"
  printf -v "${name}_pid" '%s' "$pid"
  printf -v "${name}_addr" '%s' "$addr"
  printf -v "${name}_maddr" '%s' "$maddr"
}

start_daemon tel
start_daemon wat

out="$("$bin/squirrelctl" telemetry -addr "$tel_addr" -vms 2)"
echo "$out"
grep -q 'registering ' <<<"$out"
grep -q 'boots done' <<<"$out"
grep -q 'health drama' <<<"$out"
grep -q 'squirrel_' <<<"$out"  # Prometheus export made it across the wire

out="$("$bin/squirrelctl" watch -addr "$wat_addr" -n 2 -interval 100ms)"
echo "$out"
grep -q 'watch #2' <<<"$out"   # the TWatch stream delivered both updates

# The live HTTP surface serves real counters: the boots the telemetry
# run just drove must be visible to a plain scrape.
metrics="$(curl -fsS "http://$tel_maddr/metrics")"
grep -q '^squirrel_op_total{kind="boot"} [1-9]' <<<"$metrics" || {
  echo "metrics scrape missing boot counter:"; echo "$metrics" | head -20; exit 1; }
curl -fsS "http://$tel_maddr/telemetry" | python3 -c 'import json,sys; d=json.load(sys.stdin); assert any(o["kind"]=="boot" and o["count"]>=1 for o in d["ops"]), d["ops"]'
echo "metrics scrape OK: boot counter live on /metrics and /telemetry"

# Exit-code fidelity over the wire: nothing listens on this port → 6.
set +e
"$bin/squirrelctl" run -addr 127.0.0.1:1 -vms 1 >/dev/null 2>&1
code=$?
set -e
[ "$code" -eq 6 ] || { echo "expected exit 6 for connect failure, got $code"; exit 1; }

kill -TERM "$tel_pid" "$wat_pid"
wait "$tel_pid"
wait "$wat_pid"
echo "daemon smoke OK: clean SIGTERM drain"
