#!/usr/bin/env bash
# Resume smoke test: SIGKILL a training run mid-schedule, then assert
# that --resume completes it and the final checkpoint loads.  Then
# SIGKILL an online trainer mid-stream and assert that restoring its
# newest snapshot and finishing the log publishes the same final version,
# member for member, as an uninterrupted run, with no *.tmp left behind.
#
# Usage: PYTHONPATH=src scripts/ci_resume_smoke.sh [workdir]
# Env:   SMOKE_KILL_AFTER  seconds before the training run's SIGKILL (default 6)

set -euo pipefail

if [ $# -ge 1 ]; then
  workdir="$1"
  mkdir -p "$workdir"
else
  workdir="$(mktemp -d)"
  trap 'rm -rf "$workdir"' EXIT
fi

export PYTHONPATH="${PYTHONPATH:-src}"

train_args=(
  --data "$workdir/world.npz"
  --out "$workdir/model.npz"
  --dim 16
  --user-epochs 30
  --group-epochs 40
  --checkpoint-dir "$workdir/ckpts"
)

python -m repro.cli generate --preset yelp --scale 0.01 --seed 3 \
  --out "$workdir/world.npz"

echo "--- starting training, SIGKILL in ${SMOKE_KILL_AFTER:-6}s"
set +e
timeout --signal=KILL "${SMOKE_KILL_AFTER:-6}" \
  python -m repro.cli train "${train_args[@]}"
status=$?
set -e
if [ "$status" -eq 0 ]; then
  echo "WARNING: run finished before the kill; resume will be a no-op"
else
  echo "killed with status $status (expected 137)"
fi

count=$(ls "$workdir/ckpts"/ckpt-*.npz 2>/dev/null | wc -l)
echo "--- $count checkpoint(s) on disk, resuming"
[ "$count" -ge 1 ] || { echo "FAIL: no checkpoint written before the kill"; exit 1; }

python -m repro.cli train "${train_args[@]}" --resume

python - "$workdir/model.npz" <<'EOF'
import sys
from repro.persistence import load_model
model = load_model(sys.argv[1])
print(f"final checkpoint ok: {model.num_users} users, {model.num_items} items")
EOF
echo "--- training resume smoke passed"

# The online trainer fine-tunes the model above on a generated event log,
# publishing a version after every optimizer step.  Run A consumes the
# log uninterrupted; run B is SIGKILLed halfway through A's wall time, then
# a fresh process restores its newest snapshot, seeks the log and finishes.
cat > "$workdir/online.py" <<'EOF'
import sys

import numpy as np

from repro.data.io import load_dataset
from repro.online import (
    EventLogReader, OnlineTrainer, OnlineTrainerConfig, SnapshotPublisher,
    generate_events, read_latest, write_event_log,
)
from repro.persistence import load_model

workdir, command = sys.argv[1], sys.argv[2]
dataset = load_dataset(f"{workdir}/world.npz")
log = f"{workdir}/events.jsonl"
if command == "generate":
    events = generate_events(dataset, int(sys.argv[3]), rng=np.random.default_rng(7))
    write_event_log(log, events)
elif command == "compare":
    a, b = (read_latest(directory) for directory in sys.argv[3:5])
    if a.version != b.version:
        sys.exit(f"FAIL: final versions differ: {a.version} vs {b.version}")
    with np.load(a.path) as left, np.load(b.path) as right:
        if sorted(left.files) != sorted(right.files):
            sys.exit("FAIL: the final snapshots hold different members")
        differ = [n for n in left.files if not np.array_equal(left[n], right[n])]
        if differ:
            sys.exit(f"FAIL: members differ after resume: {differ}")
        print(f"online resume ok: version {a.version}, {len(left.files)} members equal")
else:
    trainer = OnlineTrainer(
        load_model(f"{workdir}/model.npz"),
        dataset,
        SnapshotPublisher(sys.argv[3]),
        config=OnlineTrainerConfig(publish_every_steps=1),
    )
    offset = (trainer.restore_latest() if command == "resume" else None) or 0
    stats = trainer.consume(EventLogReader(log, offset=offset))
    print(f"{command}: {stats['events']} events from byte {offset}, "
          f"final version {stats['model_version']}")
EOF
online=(python "$workdir/online.py" "$workdir")
"${online[@]}" generate 3000

echo "--- online run A, uninterrupted"
started=$(date +%s%N)
"${online[@]}" run "$workdir/online-a"
half_ms=$(( ($(date +%s%N) - started) / 2000000 ))
kill_after=$(printf '%d.%03d' $((half_ms / 1000)) $((half_ms % 1000)))

echo "--- online run B, SIGKILL after ${kill_after}s"
set +e
timeout --signal=KILL "$kill_after" "${online[@]}" run "$workdir/online-b"
status=$?
set -e
[ "$status" -eq 137 ] || { echo "FAIL: online run B exited $status, not killed mid-stream"; exit 1; }
echo "killed; $(find "$workdir/online-b" -name '*.tmp' | wc -l) temporary file(s) left by the kill"

"${online[@]}" resume "$workdir/online-b"
"${online[@]}" compare "$workdir/online-a" "$workdir/online-b"
leftovers=$(find "$workdir/online-a" "$workdir/online-b" -name '*.tmp')
[ -z "$leftovers" ] || { echo "FAIL: temporaries left behind: $leftovers"; exit 1; }
echo "--- resume smoke passed"
