(** Transient and DC analysis.

    Pure nodal formulation: reactive elements become conductance + history
    current-source companion models (trapezoidal by default, backward Euler
    available for damping comparisons), nonlinear devices are handled with
    Newton iteration inside every timestep, and the linear solve uses a
    banded factorization sized to the netlist's natural bandwidth (dense LU
    fallback), so uniform-ladder transients cost O(nodes) per step.

    The transient solver is split compile → factor → step: for a fixed
    [(integration, dt)] the companion conductance stamps are time-invariant,
    so linear circuits assemble and factor the system matrix once per
    transient and each step only rebuilds the right-hand side
    (O(n·bw) instead of O(n·bw²) per step).  Nonlinear circuits pre-stamp
    the constant linear part once and copy it per Newton iteration.  The
    waveforms are bit-identical to reassembling and refactoring the whole
    system at every step; the test suite keeps such a stepper as its
    oracle.

    There is one transient path: {!Compiled.run} on a compiled handle.
    {!transient} is a run on a freshly compiled one-shot handle, so the
    two agree bit for bit by construction. *)

module Waveform = Rlc_waveform.Waveform

type integration = Trapezoidal | Backward_euler

type options = {
  dt : float;  (** fixed timestep, seconds *)
  t_stop : float;
  integration : integration;
  newton_tol : float;  (** max |dV| (volts) for Newton convergence *)
  newton_max : int;
  dv_limit : float;  (** per-iteration Newton voltage step clamp, volts *)
}

val default_options : dt:float -> t_stop:float -> options
(** Trapezoidal, [newton_tol = 1e-9] V, [newton_max = 60],
    [dv_limit = 0.5] V. *)

type adaptive = {
  dt_min : float;  (** smallest step (ladder rung 0), seconds *)
  dt_max : float;  (** largest step; the ladder tops out at the largest
                       [dt_min * 2^k <= dt_max] *)
  ltol : float;  (** per-step local-truncation-error budget, volts *)
}
(** Parameters of the LTE-controlled adaptive stepper.  Step sizes are
    quantized to the ladder [h = dt_min * 2^k] so the factorization of the
    companion system is built once per rung and reused for every step taken
    at that rung; [h] grows through flat regions (two consecutive accepts
    with the error estimate under [ltol]/4 climb one rung) and drops a rung
    on rejection.  Rung-0 steps are never rejected — [dt_min] is the
    accuracy floor. *)

val default_adaptive : ?dt_min:float -> ?dt_max:float -> ?ltol:float -> unit -> adaptive
(** [dt_min = 0.25 ps], [dt_max = 256 * dt_min], [ltol = 10 mV].  The
    10 mV per-step budget is calibrated on the Table-1 sweep: accumulated
    delay/slew deviation from fixed-step stays under 0.2 % (the acceptance
    bar is 1 %) while flat tails coarsen by two extra rungs; pass
    [~ltol:1e-3] for waveform-tracking work. *)

type result

(** What a [stop_after] entry [(node, stop)] waits for on [node]'s
    recorded samples (see {!Compiled.run}).

    - [Crossing (direction, level)]: the node's first crossing of [level]
      in [direction] — the {!Rlc_waveform.Waveform.crossings} test on
      consecutive samples, [prev < level && cur >= level] for [Rising] and
      [prev > level && cur <= level] for [Falling].
    - [Max_final]: proof that the node's running maximum is final, i.e. no
      later sample can exceed the largest one recorded so far.  The proof is
      a passivity bound.  Once every source has settled the circuit is a
      passive linear RLC network about its settled point [v_inf], and
      neither trapezoidal nor backward-Euler steps ever increase the stored
      energy relative to it,
      [E = sum 1/2 C dv^2 (capacitor branches) + sum 1/2 L i^2 (inductors)]
      (Tellegen's theorem on the step's branch quantities: the storage
      elements' energy change is minus the resistors' dissipation).  The
      capacitors [C_node] from the node to ground or to forced nodes hold
      at most [E], so every later sample obeys
      [v <= v_inf + sqrt (2 E / C_node)].  The entry is satisfied when that
      bound sits 1 µV below the running maximum; the margin covers
      rounding in the step solves.  The bound is evaluated every 16
      recorded steps, and only when all of these hold:
      {ul
      {- the circuit has no nonlinear devices, current sources or
         coupled-inductor groups;}
      {- every forced node was declared with {!Netlist.force_pwl}, and the
         step's time is at or past their latest end
         ({!Netlist.settle_time}) — a {!Netlist.force_voltage} closure has
         no known settle time;}
      {- every unknown node reaches ground or a forced node through
         resistors and inductors, so the settled point is unique, and no
         inductor joins two forced nodes;}
      {- the settled point carries no current: each group of unknown nodes
         joined by resistors and inductors touches fixed nodes (ground or
         forced) whose settled values are all equal.  The group then
         settles at exactly that value with no inductor current, so
         [v_inf] is copied from source values, free of a DC solve's
         rounding;}
      {- the node has capacitance to ground or forced nodes.}}
      Otherwise the entry behaves like an unreached crossing and the run
      covers its whole window. *)
type stop = Crossing of Waveform.direction * float | Max_final

val transient :
  ?obs:Rlc_obs.Obs.t ->
  ?options:options ->
  ?record_nodes:Netlist.node list ->
  ?adaptive:adaptive ->
  ?stop_after:(Netlist.node * stop) list ->
  dt:float ->
  t_stop:float ->
  Netlist.t ->
  result
(** Runs DC operating point at [t = 0] then steps to [t_stop] — or, with
    [stop_after], until every listed entry is satisfied (see
    {!Compiled.run}): exactly [Compiled.run] on [Compiled.compile netlist],
    a handle used once.
    Either pass a full [options] record or just [dt]/[t_stop].  Raises
    [Failure] if Newton fails to converge at any timestep, and
    [Invalid_argument] — before compiling — unless every step parameter
    ([dt], [t_stop] and, with [adaptive], [dt_min], [dt_max], [ltol]) is
    finite and positive and [dt_min <= dt_max].

    [obs] (default disabled) records ["engine.compile"] /
    ["engine.dc_solve"] / ["engine.factor"] / ["engine.step_loop"] spans
    (the step-loop span carries [steps], [newton_total], the solver
    [path] and [stopped] — the stop step or [none], see {!Compiled.run} —
    as args) plus ["engine.transients"] / ["engine.steps"] /
    ["engine.newton_iters"] counters.  Only phase boundaries are
    instrumented — the per-step inner loops are untouched, so results and
    speed are identical when disabled.

    [record_nodes] restricts waveform storage to the listed nodes (default:
    every node).  Recording all nodes costs O(nodes × steps) memory, which
    dominates for long ladders whose observers only ever read input/near/far;
    {!voltage} on an unrecorded node raises [Invalid_argument].

    [adaptive] switches to LTE-controlled variable time steps (see
    {!adaptive}); [dt] is then unused and the recorded waveforms sit on the
    adaptive (non-uniform) grid.  Every breakpoint declared on the netlist's
    forced sources ({!Netlist.force_voltage} / {!Netlist.force_pwl}) that
    falls inside [(0, t_stop)] is landed on exactly, as is [t_stop] itself,
    so source kinks are never stepped over; landing on a kink restarts the
    stepper at [dt_min].  With [obs] enabled the step-loop span
    additionally carries [rejected] and [refactors] args, accepted step
    sizes feed the ["engine.step_size_ns"] histogram (values in
    nanoseconds), and ["engine.steps_rejected"] / ["engine.refactors"]
    counters accumulate.  The fixed-step path is completely untouched by
    this option. *)

val times : result -> float array
val voltage : result -> Netlist.node -> Waveform.t
(** Raises [Invalid_argument] if the node was excluded by [record_nodes]. *)

val is_recorded : result -> Netlist.node -> bool
val voltage_at : result -> Netlist.node -> float -> float
val newton_total : result -> int
val newton_worst : result -> int
val steps : result -> int

val steps_rejected : result -> int
(** Adaptive mode: step attempts rolled back by the LTE control (0 for
    fixed-step runs). *)

val refactors : result -> int
(** Adaptive mode: companion-system assemblies/factorizations performed —
    one per ladder rung visited and per distinct breakpoint-clamped offcut
    step size, counting only those the handle had not built in an earlier
    run (0 for fixed-step runs).  Ladder reuse working means this stays far
    below {!steps}. *)

val dc_operating_point : ?t:float -> Netlist.t -> float array
(** Newton DC solution (capacitors open, inductors shorted through 1 mOhm)
    with sources evaluated at time [t] (default 0).  Returns the voltage of
    every node, indexed by node id. *)

(** Compile-once transient handles for candidate sweeps.

    Sweep-scale workloads (driver sizing, repeater insertion, Ceff model
    iteration) run thousands of transients over the {e same} circuit
    topology with different element values or input sources.  A handle
    amortizes everything that depends only on topology: compile (node
    ordering, bandwidth analysis, element slots), per-(integration, step
    size) solver states with their factorizations, and the DC operating
    point.  {!transient} is itself a {!run} on a one-shot handle, so a run
    on a reused handle is bit-identical to a fresh {!transient} call on the
    equivalent netlist — same floats through the same step cores in the
    same order — and callers can adopt handles without moving any accuracy
    goalposts. *)
module Compiled : sig
  type handle

  val compile : ?obs:Rlc_obs.Obs.t -> Netlist.t -> handle
  (** Compile the netlist into a reusable handle (records the usual
      ["engine.compile"] span).  The handle is not thread-safe: its solver
      scratch is mutated by every {!run}; keep one per domain (or use
      {!cached}, which keys handles by domain). *)

  val restamp : handle -> Netlist.t -> unit
  (** Write the netlist's element values into the handle's existing
      structure — no allocation on the value path.  The new netlist must
      match the compiled topology exactly (same node count, same element
      kinds/nodes in insertion order, same forced nodes); a mismatch raises
      [Invalid_argument] and leaves the handle needing a successful restamp
      (or rebuild) before reuse.  Source and nonlinear closures are always
      swapped in; a change to a matrix-affecting value (resistance,
      capacitance, inductance, coupling matrix) drops the cached solver
      states and DC point, while source-only restamps keep them all. *)

  val run :
    ?obs:Rlc_obs.Obs.t ->
    ?options:options ->
    ?record_nodes:Netlist.node list ->
    ?adaptive:adaptive ->
    ?stop_after:(Netlist.node * stop) list ->
    dt:float ->
    t_stop:float ->
    handle ->
    result
  (** {!transient} on the handle's current element values, minus the
      per-call compile (same arguments, same validation): solver states
      are cached per [(integration, step size)] (fixed-step states and
      adaptive rung/offcut states share the cache), and the DC operating
      point is reused whenever the circuit is linear and every source's
      value at [t = 0] is bit-identical to the cached solve's.

      [stop_after] lists [(node, stop)] entries (see {!stop}); the run ends
      right after the first recorded step by which every entry is
      satisfied — each listed first crossing has happened and each listed
      running maximum is proven final — in fixed-step, Newton and adaptive
      runs alike.  The result's times and waveforms are then exactly the
      unstopped run's prefix up to that step, so every listed first
      crossing — and any other first crossing completed by then — and
      every [Max_final] node's maximum read the same bits as the full run,
      while nothing after that step is present.  An entry that is never
      satisfied yields the unstopped result, as does [[]] (the default).
      Every listed node must be recorded (see [record_nodes]), else
      [Invalid_argument].  Stoppable
      runs grow their buffers on demand rather than sizing them for
      [t_stop]; [steps], [newton_total] and the [obs] counters count only
      the steps executed.  With [obs], the step-loop span carries a
      [stopped] arg (the stop step, or [none]) and each stopped run adds
      one to ["engine.early_stops"]. *)

  val node_count : handle -> int

  val cached : ?obs:Rlc_obs.Obs.t -> Netlist.t -> handle
  (** Structure-keyed handle memo: returns this domain's handle for the
      netlist's topology, restamped to the netlist's values, or compiles
      and stores a new one.  Handles live in one process-wide
      {!Rlc_memo.Memo} of 256 entries keyed by [Domain.self ()] plus a
      topology hash, so a handle is never shared across domains; a domain
      drops its handles when it exits.  A hit whose
      restamp fails (a topology-hash collision) runs on a one-shot
      compiled handle instead.  A handle that was evicted and compiled
      again runs bit-identically to a fresh {!transient}.  With [obs],
      counts ["engine.handle.hits"] / ["engine.handle.misses"] (a failed
      restamp counts as a miss). *)

  val memo : Rlc_memo.Memo.view
  (** The handle memo, for its counters. *)

  val clear_cache : unit -> unit
  (** Drop every cached handle; the memo counts them as evictions. *)
end
