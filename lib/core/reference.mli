(** Reference ("HSPICE substitute") simulations.

    Two circuits back every experiment:
    - {!simulate}: transistor-level inverter driving the discretized line —
      the ground truth the model is scored against;
    - {!replay_pwl}: the modeled one-/two-ramp waveform as an ideal source
      driving the same line — step 5 of the paper's flow, used to validate
      the far-end response of the model (Figure 6 right); {!replay_far}
      measures that replay's far end and stops once it has. *)

module Waveform = Rlc_waveform.Waveform
module Line = Rlc_tline.Line

type t = {
  input : Waveform.t;
  near : Waveform.t;  (** driver output = line driving point *)
  far : Waveform.t;
  vdd : float;
  t_in50 : float;  (** absolute time of the input 50 % crossing *)
}

val input_start : float
(** 30 ps: when {!simulate}'s input ramp starts (its [t0]). *)

val default_t_stop : t0:float -> input_slew:float -> line:Line.t -> float
(** The full simulation window of {!simulate}:
    [t0 + input_slew + max(2 ns, 20 tf)], where [tf] is the line's time of
    flight — wide enough that the slowest Table-1 ramp settles and far-end
    50 %/90 % crossings always exist.  [simulate] without [~t_stop] uses it
    as the cap of an early-stopped run; pass
    [~t_stop:(default_t_stop ~t0:input_start ...)] for the whole window. *)

val simulate :
  ?obs:Rlc_obs.Obs.t ->
  ?dt:float ->
  ?t_stop:float ->
  ?adaptive:Rlc_circuit.Engine.adaptive ->
  ?n_segments:int ->
  tech:Rlc_devices.Tech.t ->
  size:float ->
  input_slew:float ->
  line:Line.t ->
  cl:float ->
  unit ->
  t
(** Rising-output bench: falling input ramp, inverter of the given size,
    ladder, load cap.  Defaults: [dt = 0.25 ps]; [adaptive] switches the
    engine to LTE-controlled stepping ([dt] is then unused) and the
    returned waveforms sit on the adaptive grid.

    Without [t_stop] the transient ends right after the last first
    crossing the measurements below read — input 50 % falling, near and
    far end 10/50/90 % rising — capped at {!default_t_stop}: [t_in50] and
    every [near_*]/[far_*] value are bitwise those of the full window, but
    the waveforms end there (see {!Rlc_circuit.Engine.Compiled.run}).
    Pass [~t_stop] to get a whole window, e.g. to plot the waveforms. *)

val replay_pwl :
  ?obs:Rlc_obs.Obs.t ->
  ?dt:float ->
  ?t_stop:float ->
  ?adaptive:Rlc_circuit.Engine.adaptive ->
  ?n_segments:int ->
  ?reuse:bool ->
  pwl:Rlc_waveform.Pwl.t ->
  line:Line.t ->
  cl:float ->
  unit ->
  Waveform.t * Waveform.t
(** [(near, far)] for the ideal-source replay, on the {e same time axis as
    the input PWL} (for a {!Driver_model} waveform: t = 0 at the input 50 %
    crossing), so model far-end measurements compare directly against
    {!far_delay} of a transistor-level run.

    [reuse] (default [true]) routes the replay through the domain-keyed
    {!Rlc_circuit.Engine.Compiled.cached} handle cache: same-shape ladder
    replays after the first restamp values into the compiled structure
    instead of recompiling.  Results are bit-identical either way; pass
    [~reuse:false] to force a fresh compile per call. *)

val replay_far :
  ?obs:Rlc_obs.Obs.t ->
  ?dt:float ->
  ?adaptive:Rlc_circuit.Engine.adaptive ->
  vdd:float ->
  pwl:Rlc_waveform.Pwl.t ->
  line:Line.t ->
  cl:float ->
  unit ->
  float * float
(** [(stage_delay, far_slew)]: the far end's 50 % crossing time on the
    PWL's time axis and its 10–90 % slew, both rising, for the same cached
    replay as {!replay_pwl}.

    Like {!simulate} without [~t_stop], the transient ends right after the
    last first crossing these read — far-end 10/50/90 % of [vdd], levels
    from {!Rlc_waveform.Measure.level_of_frac} — capped at {!replay_pwl}'s
    default window, so both values are bitwise those of a full-window
    {!replay_pwl} measured with {!Rlc_waveform.Measure}.  A level never
    reached runs the whole window and raises [Invalid_argument]: the 50 %
    one with {!Rlc_waveform.Measure.t_frac_exn}'s message, a missing 10 %
    or 90 % (with 50 % reached) as an incomplete far end. *)

(* Measurements (conventions of DESIGN.md §4, all on the rising edge). *)

val near_delay : t -> float
(** Input 50 % -> driver output 50 %. *)

val near_slew : t -> float
(** 10–90 at the driver output. *)

val far_delay : t -> float
val far_slew : t -> float
