(** Cell characterization: generate NLDM tables with the circuit engine.

    This plays the role of the foundry's SPICE characterization runs — each
    grid point is one transient of (ramp input -> inverter -> pure
    capacitance), measured with the shared {!Rlc_waveform.Measure}
    conventions and ended right after the last crossing it measures, so
    the numbers are bitwise those of the whole conservative window.
    Results are memoized per (technology, grid, size) because the
    effective-capacitance iterations hit the same cell repeatedly. *)

type grid = {
  slews : float array;  (** input transitions, seconds *)
  caps : float array;  (** load capacitances, farads *)
}

val default_grid : grid
(** 7 slews (20–300 ps) x 8 caps (20 fF – 3.2 pF), covering the paper's
    sweep (input slews 50–200 ps, line caps 0.2–1.8 pF). *)

val cell_res :
  ?obs:Rlc_obs.Obs.t ->
  ?grid:grid ->
  Rlc_devices.Tech.t ->
  size:float ->
  (Table.cell, Rlc_errors.Error.t) result
(** Characterize both output arcs of an inverter of the given size.
    Results are memoized in one process-wide bounded {!Rlc_memo.Memo}
    shared across domains, keyed by the technology name, every grid float
    and the size (floats by their exact [%h] image): repeated calls are
    free, and a sizing sweep over N candidate sizes pays for each size
    once.  The memo holds at most {!capacity} cells, so a daemon fed ever
    new sizes stays bounded; an evicted cell is recharacterized to the
    same bits.  [obs] bumps ["char.hits"] / ["char.misses"] /
    ["char.stores"] (the same totals are always available via {!stats}).  The user-reachable exits
    are typed: a non-positive size is {!Rlc_errors.Error.Bad_request},
    a grid point whose waveform never completes is
    {!Rlc_errors.Error.Internal}. *)

val capacity : int
(** 64 cells (one shard, so the bound is exact). *)

val memo : Rlc_memo.Memo.view
(** The cell memo, for its counters. *)

val stats : unit -> int * int * int
(** [(hits, misses, stores)] of the cell memo since start, summed over
    every technology, grid, and domain; [stores] is the memo's
    [entries + evictions].  [stores <= misses]; the gap is concurrent
    domains racing to characterize the same cell (first insert wins).
    Monotone: {!clear_cache} counts the cells it drops as evictions. *)

val clear_cache : unit -> unit

val characterize_point_res :
  Rlc_devices.Tech.t -> size:float -> edge:Rlc_devices.Testbench.edge ->
  input_slew:float -> cap:float -> (float * float * float * float, Rlc_errors.Error.t) result
(** One grid point: [(delay_50, slew_10_90, slew_20_80, tail_50_90)].
    Exposed so tests can compare table lookups against direct simulation. *)
