(** Coupled victim/aggressor cluster assembly and transient simulation.

    A cluster is the victim net plus the aggressors that survived the
    {!Noise} screen.  Each member net is reduced to its total-R/L/C
    equivalent uniform line (the same reduction {!Rlc_flow.Design} feeds the
    inductance screen) and discretized into an [n_segments] RLC ladder; the
    lumped victim-aggressor coupling capacitance is distributed evenly
    between corresponding segment nodes, exactly as
    {!Rlc_tline.Coupled_ladder} distributes it for two lines.  Nodes are
    allocated interleaved across members segment by segment so the nodal
    matrix stays banded.

    Driver representation follows {!Rlc_ceff.Reference.replay_pwl}: a
    switching member's near end is forced with its driver-model PWL (an
    ideal replacement for the fitted output waveform), while a quiet member
    is held at ground through its fitted on-resistance [rs].
    Aggressor-aggressor coupling inside a cluster is ignored — it is second
    order for the victim's waveform and keeps clusters pairwise-shaped. *)

type member = {
  line : Rlc_tline.Line.t;  (** total-R/L/C equivalent uniform line *)
  drive : Rlc_waveform.Pwl.t option;
      (** [Some pwl] forces the near end with the waveform; [None] holds the
          near end quiet through [rs] *)
  rs : float;  (** driver on-resistance, used when [drive = None], Ohm *)
  cl : float;  (** far-end lumped load, F *)
}

val default_segments : int
(** 40: enough for the flight-time accuracy the noise/delay measurements
    need while keeping a cluster transient cheap. *)

val simulate :
  ?obs:Rlc_obs.Obs.t ->
  ?n_segments:int ->
  ?stop_after:Rlc_circuit.Engine.stop list ->
  dt:float ->
  victim:member ->
  aggressors:(member * float) list ->
  unit ->
  Rlc_waveform.Waveform.t
(** Build the coupled cluster — victim plus [(aggressor, cc_total)] pairs —
    run a fixed-step transient, and return the {e victim far-end} waveform
    on the caller's time axis (drives are internally shifted so the engine's
    DC point sees the quiescent state, then shifted back, as in
    [replay_pwl]).  The stop time is the last drive's end plus the larger
    of 1 ns and ten flight times of the slowest member.

    [stop_after] lists stop entries on the victim's far end (see
    {!Rlc_circuit.Engine.stop}): [Crossing (direction, level)] first
    crossings (levels in volts) and [Max_final], the proof that the
    far end's running maximum is final.  The transient ends right after
    the step by which all of them are satisfied (see
    {!Rlc_circuit.Engine.Compiled.run}): the returned waveform is then
    exactly the full-length one's prefix through that step, so those
    crossings — and any first crossing completed by then — and, under
    [Max_final], {!Rlc_waveform.Waveform.v_max} are bit-identical to the
    full run's, while nothing after that step is present.  A cluster
    always meets [Max_final]'s conditions (linear, PWL drives, every node
    tied to ground or a drive through its line or [rs]), so the entry can
    fire once the drives have ended and the stored energy has decayed
    below the peak; an entry never satisfied returns the full-length
    waveform.

    Deterministic: a pure function of the arguments, independent of worker
    scheduling. *)
