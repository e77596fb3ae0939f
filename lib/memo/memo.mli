(** Bounded, sharded, concurrent string-keyed memo.

    One kernel behind every cache whose eviction cannot change a result:
    the Ceff↔Tr solve cache ([Rlc_flow.Flow.create_cache]), the
    characterized-cell store ([Rlc_liberty.Characterize]) and the
    compiled transient-handle cache ([Rlc_circuit.Engine.Compiled.cached]).

    {b Contract.}  A stored value is either
    - a pure function of its key — a key that misses again after eviction
      recomputes a bit-identical value — or
    - keyed by the domain that owns it (the key embeds [Domain.self ()]),
      never shared across domains, and restamped with the caller's inputs
      on every hit, so the handle a hit returns computes exactly what a
      fresh one would.  The owner drops its entries with {!remove_if}
      when the domain exits.

    Under either rule eviction never changes a result: only the counters
    depend on the capacity and on scheduling.

    {b Concurrency.}  Keys hash-partition across [shards] independent
    tables, each behind its own mutex, so concurrent callers contend only
    on same-shard keys.  On a miss [compute] runs {e outside} the lock; if
    two domains miss on one key at once both compute, the first insert
    wins and the duplicate result is dropped.

    {b Bound.}  Each shard holds at most [max 1 (capacity / shards)]
    entries in a fixed ring swept by a clock hand.  A hit sets the entry's
    reference bit; inserting into a full shard advances the hand, clearing
    set bits, and evicts the first entry whose bit is clear (second
    chance), in amortized O(1) under the shard's lock.  A long-lived
    process's memo therefore stays the same size however many distinct
    keys it sees, and entries read since the hand last passed outlive
    one-off ones.

    {b Counters} never go down: [hits] and [misses] count lookups since
    {!create}, and {!clear} counts the entries it drops as [evictions].
    Every insert adds one entry and every entry leaves only by eviction,
    so the inserts since {!create} are always [entries + evictions]. *)

type 'a t

type stats = {
  entries : int;  (** entries held now *)
  hits : int;  (** lookups answered from the memo *)
  misses : int;  (** lookups that ran [compute], racing duplicates included *)
  evictions : int;  (** entries dropped by the clock or by {!clear} *)
}

type view = View : 'a t -> view
(** A memo with its value type hidden: enough to read its counters, no
    way to insert into it. *)

val create : ?shards:int -> capacity:int -> unit -> 'a t
(** [shards] (default 16) is clamped to at least 1 and rounded up to a
    power of two.  Each shard keeps at most [max 1 (capacity / shards)]
    entries, [shards] after rounding; {!capacity} is the resulting
    total bound. *)

val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a * bool
(** [find_or_add t key compute] returns [(value, hit)].  [compute] runs
    outside the lock on a miss; if it raises, nothing is stored and the
    exception propagates. *)

val stats : 'a t -> stats
(** The sums over shards of {!shard_stats}. *)

val shard_stats : 'a t -> stats array
(** Per-shard counters, index-aligned with the partition. *)

val sum : stats array -> stats

val capacity : 'a t -> int
(** The total entry bound: shard count times per-shard capacity. *)

val shards : 'a t -> int
(** The shard count actually in use (power of two). *)

val clear : 'a t -> unit
(** Drop every entry, counting each as an eviction; [hits] and [misses]
    keep running. *)

val remove_if : 'a t -> (string -> bool) -> unit
(** Drop every entry whose key satisfies the predicate, counting each as
    an eviction.  O(capacity). *)
