(** Concurrent string-keyed result cache with input canonicalization.

    The Ceff↔Tr fixed point is a pure function of (cell, edge, input slew,
    load admittance, line constants, sink load), so repeated bus bits — and
    warm re-runs of a design — can share one solve.  Keys are strings built
    from {e quantized} inputs, and callers must feed the {e same quantized
    values} into the solve itself: that way two nets that collide on a key
    compute bit-identical results, making reports independent of which
    domain populated the cache first (the [--jobs 1] vs [--jobs N]
    determinism guarantee).

    On a concurrent miss both domains compute (the solve runs outside the
    lock); the first insert wins and the duplicate result — equal by
    construction — is dropped.

    The cache is {e sharded}: keys hash-partition across [shards]
    independent tables, each behind its own mutex, so concurrent service
    requests sharing one session cache contend only on same-shard keys
    instead of one global lock.  Hit/miss/length queries aggregate over
    shards; {!shard_stats} exposes the per-shard breakdown (the sums
    always reconcile with {!hits}/{!misses}/{!evictions}/{!length}).

    The cache is {e bounded}: each shard holds at most [capacity / shards]
    entries (at least one) in a fixed ring swept by a clock hand.  A hit
    sets the entry's reference bit; inserting into a full shard advances
    the hand, clearing set bits, and evicts the first entry whose bit is
    clear (second chance), all in amortized O(1) under the shard's lock.
    So a long-lived daemon's cache stays the same size however many
    distinct solves it sees, and entries read since the hand last passed
    outlive one-off ones.

    Eviction never changes a result.  Under the quantize-then-solve
    contract above a value is a pure function of its key, so a key that
    misses again after eviction recomputes a bit-identical value: only
    the hit/miss/eviction counters (never reported in JSON/CSV) depend on
    the capacity and on scheduling. *)

type 'a t

val default_shards : int
(** 16 — comfortably more shards than plausible worker domains. *)

val default_capacity : int
(** 2048 entries — 128 per shard at {!default_shards}. *)

val create : ?shards:int -> ?capacity:int -> unit -> 'a t
(** [shards] (default {!default_shards}) is clamped to at least 1 and
    rounded up to a power of two.  [capacity] (default {!default_capacity})
    bounds the total entry count: each shard keeps at most
    [max 1 (capacity / shards)] entries, [shards] after rounding. *)

val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a * bool
(** [find_or_add t key compute] returns [(value, hit)].  [compute] runs
    outside the lock on a miss. *)

val hits : 'a t -> int
val misses : 'a t -> int

val evictions : 'a t -> int
(** Entries dropped to make room since {!create} or the last {!clear}; a
    single-domain run of distinct keys leaves [evictions = misses - length]. *)

val length : 'a t -> int

val shards : 'a t -> int
(** The shard count actually in use (power of two). *)

type shard_stat = { s_length : int; s_hits : int; s_misses : int; s_evictions : int }

val shard_stats : 'a t -> shard_stat array
(** Per-shard (length, hits, misses, evictions), index-aligned with the
    partition; each field sums to the corresponding aggregate query. *)

val clear : 'a t -> unit

(** {2 Canonicalization helpers} *)

val quantize : ?digits:int -> float -> float
(** Round to [digits] significant decimal digits (default 9) by a
    [%.*e] round-trip; total order preserved, NaN/inf pass through.  Nine
    digits comfortably exceeds extraction noise while collapsing
    bit-identical bus parasitics emitted with different float garbage. *)

val quantize_slew : ?grid:float -> float -> float
(** Snap a slew to a time grid (default 0.1 ps): slews arriving from
    upstream stages differ in the last ulps even for symmetric bus bits, so
    a coarser deterministic grid is what makes their cache keys collide. *)
