# strip_wall FILE: print a BENCH_*.json body without its wall-clock and
# sync-overhead lines, so two runs can be diffed byte-for-byte. The
# pattern is `WALL_KEYS_RE` in crates/bench/src/scale.rs; a unit test
# there keeps the two identical.
#
# Usage: . ci/strip_wall.sh && diff <(strip_wall a.json) <(strip_wall b.json)
strip_wall() { grep -vE '"(wall_secs|wall_events_per_sec|jobs|physical_cores|shards|threads_total|shard_windows|shard_envelopes|shard_blocked_ns|fattree_wall)"' "$1"; }
