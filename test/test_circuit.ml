(* Validation of the nodal transient engine against closed-form circuit
   responses: these are the physics the "HSPICE substitute" must get right
   before any effective-capacitance experiment can be trusted. *)
open Rlc_circuit
open Rlc_waveform

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let step v t = if t <= 0. then 0. else v

(* ------------------------------------------------------- linear circuits *)

let test_rc_step () =
  (* 1 kOhm into 1 pF: tau = 1 ns. *)
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and out = Netlist.node nl "out" in
  Netlist.force_voltage nl src (step 1.);
  Netlist.resistor nl src out 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-12;
  let r = Engine.transient ~dt:5e-12 ~t_stop:5e-9 nl in
  let w = Engine.voltage r out in
  let tau = 1e-9 in
  List.iter
    (fun t ->
      let expected = 1. -. Float.exp (-.t /. tau) in
      check_float ~eps:2e-3 (Printf.sprintf "rc at %g" t) expected (Waveform.value_at w t))
    [ 0.3e-9; 1e-9; 2e-9; 4e-9 ]

let test_rc_divider_dc () =
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and mid = Netlist.node nl "mid" in
  Netlist.force_voltage nl src (fun _ -> 1.8);
  Netlist.resistor nl src mid 2e3;
  Netlist.resistor nl mid Netlist.ground 1e3;
  let v = Engine.dc_operating_point nl in
  check_float ~eps:1e-9 "divider" 0.6 v.(mid)

let test_series_rlc_underdamped () =
  (* R = 20 Ohm, L = 5 nH, C = 1 pF: zeta ~ 0.141, wn = 1.414e10. *)
  let r = 20. and l = 5e-9 and c = 1e-12 and v = 1. in
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and mid = Netlist.node nl "mid" and out = Netlist.node nl "out" in
  Netlist.force_voltage nl src (step v);
  Netlist.resistor nl src mid r;
  Netlist.inductor nl mid out l;
  Netlist.capacitor nl out Netlist.ground c;
  let res = Engine.transient ~dt:0.2e-12 ~t_stop:2e-9 nl in
  let w = Engine.voltage res out in
  let wn = 1. /. Float.sqrt (l *. c) in
  let zeta = r /. 2. *. Float.sqrt (c /. l) in
  let wd = wn *. Float.sqrt (1. -. (zeta *. zeta)) in
  let expected t =
    let e = Float.exp (-.zeta *. wn *. t) in
    v *. (1. -. (e *. (Float.cos (wd *. t) +. (zeta /. Float.sqrt (1. -. (zeta *. zeta)) *. Float.sin (wd *. t)))))
  in
  List.iter
    (fun t ->
      check_float ~eps:5e-3 (Printf.sprintf "rlc at %g" t) (expected t) (Waveform.value_at w t))
    [ 0.1e-9; 0.22e-9; 0.5e-9; 1.0e-9; 1.8e-9 ];
  (* Underdamped response must overshoot the supply. *)
  Alcotest.(check bool) "overshoots" true (Waveform.v_max w > 1.2)

let test_backward_euler_damps () =
  (* BE is more dissipative than trapezoidal: peak overshoot must be lower. *)
  let build () =
    let nl = Netlist.create () in
    let src = Netlist.node nl "src" and mid = Netlist.node nl "mid" and out = Netlist.node nl "out" in
    Netlist.force_voltage nl src (step 1.);
    Netlist.resistor nl src mid 10.;
    Netlist.inductor nl mid out 5e-9;
    Netlist.capacitor nl out Netlist.ground 1e-12;
    (nl, out)
  in
  let run integration =
    let nl, out = build () in
    let options =
      { (Engine.default_options ~dt:2e-12 ~t_stop:2e-9) with Engine.integration } in
    let r = Engine.transient ~options ~dt:2e-12 ~t_stop:2e-9 nl in
    Waveform.v_max (Engine.voltage r out)
  in
  let peak_trap = run Engine.Trapezoidal and peak_be = run Engine.Backward_euler in
  Alcotest.(check bool)
    (Printf.sprintf "BE peak (%.3f) < trap peak (%.3f)" peak_be peak_trap)
    true (peak_be < peak_trap)

let test_current_source_into_rc () =
  (* 1 mA into 1 kOhm || cap: settles to 1 V. *)
  let nl = Netlist.create () in
  let out = Netlist.node nl "out" in
  Netlist.current_source nl Netlist.ground out (step 1e-3);
  Netlist.resistor nl out Netlist.ground 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-12;
  let r = Engine.transient ~dt:10e-12 ~t_stop:10e-9 nl in
  check_float ~eps:2e-3 "settles to IR" 1. (Engine.voltage_at r out 9e-9)

let test_lc_ladder_time_of_flight () =
  (* Matched-source lossless line: far end sees a full-swing step delayed by
     the time of flight sqrt(Ltot * Ctot). *)
  let l_tot = 5e-9 and c_tot = 1e-12 and n = 60 in
  let z0 = Float.sqrt (l_tot /. c_tot) in
  let tf = Float.sqrt (l_tot *. c_tot) in
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" in
  Netlist.force_voltage nl src (step 1.);
  let drive = Netlist.node nl "drive" in
  Netlist.resistor nl src drive z0;
  let dl = l_tot /. float_of_int n and dc = c_tot /. float_of_int n in
  let last =
    List.fold_left
      (fun prev i ->
        let nn = Netlist.node nl (Printf.sprintf "n%d" i) in
        Netlist.inductor nl prev nn dl;
        Netlist.capacitor nl nn Netlist.ground dc;
        nn)
      drive
      (List.init n (fun i -> i))
  in
  let r = Engine.transient ~dt:0.25e-12 ~t_stop:0.5e-9 nl in
  let far = Engine.voltage r last in
  (match Waveform.first_crossing far ~level:0.5 ~direction:Waveform.Rising with
  | Some t50 ->
      Alcotest.(check bool)
        (Printf.sprintf "far-end 50%% at %.1f ps vs tf %.1f ps" (t50 /. 1e-12) (tf /. 1e-12))
        true
        (Float.abs (t50 -. tf) < 0.08 *. tf)
  | None -> Alcotest.fail "far end never crossed 50%");
  (* Open far end doubles the incident half-swing wave: settles near 1 V. *)
  check_float ~eps:0.05 "far end settles" 1. (Waveform.v_final far)

let test_pwl_replay () =
  (* Forced PWL source reproduces itself at the forced node. *)
  let p = Pwl.two_ramp ~t0:20e-12 ~vdd:1.8 ~f:0.55 ~tr1:30e-12 ~tr2:180e-12 in
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and out = Netlist.node nl "out" in
  Netlist.force_voltage nl src (Pwl.eval p);
  Netlist.resistor nl src out 50.;
  Netlist.capacitor nl out Netlist.ground 10e-15;
  let r = Engine.transient ~dt:1e-12 ~t_stop:400e-12 nl in
  let w = Engine.voltage r src in
  List.iter
    (fun t -> check_float ~eps:1e-6 (Printf.sprintf "pwl at %g" t) (Pwl.eval p t) (Waveform.value_at w t))
    [ 25e-12; 50e-12; 150e-12; 350e-12 ]

(* ---------------------------------------------------------- nonlinear *)

(* A nonlinear element that behaves exactly like a grounded linear resistor:
   the Newton path must then agree with the plain resistor stamp. *)
let nonlinear_resistor node g =
  {
    Netlist.nl_name = "gres";
    nl_nodes = [| node |];
    nl_eval =
      (fun v ->
        let i = g *. v.(0) in
        ([| i |], [| [| g |] |]));
  }

let test_nonlinear_matches_linear () =
  let build use_nonlinear =
    let nl = Netlist.create () in
    let src = Netlist.node nl "src" and out = Netlist.node nl "out" in
    Netlist.force_voltage nl src (fun _ -> 2.);
    Netlist.resistor nl src out 1e3;
    if use_nonlinear then Netlist.nonlinear nl (nonlinear_resistor out 1e-3)
    else Netlist.resistor nl out Netlist.ground 1e3;
    let v = Engine.dc_operating_point nl in
    v.(out)
  in
  check_float ~eps:1e-9 "nonlinear = linear" (build false) (build true)

let test_diode_clamp_dc () =
  (* Source 1 V -> 1 kOhm -> diode to ground.  Check KCL at the solution:
     (1 - v)/R = Is (exp (v/vt) - 1). *)
  let is_ = 1e-14 and vt = 0.02585 in
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and out = Netlist.node nl "out" in
  Netlist.force_voltage nl src (fun _ -> 1.);
  Netlist.resistor nl src out 1e3;
  Netlist.nonlinear nl
    {
      Netlist.nl_name = "diode";
      nl_nodes = [| out |];
      nl_eval =
        (fun v ->
          (* Exponent clamp keeps early Newton iterations finite. *)
          let x = Float.min (v.(0) /. vt) 60. in
          let e = Float.exp x in
          ([| is_ *. (e -. 1.) |], [| [| is_ *. e /. vt |] |]));
    };
  let v = Engine.dc_operating_point nl in
  let i_r = (1. -. v.(out)) /. 1e3 in
  let i_d = is_ *. (Float.exp (v.(out) /. vt) -. 1.) in
  check_float ~eps:1e-9 "KCL balance" 0. (i_r -. i_d);
  Alcotest.(check bool) "forward drop plausible" true (v.(out) > 0.4 && v.(out) < 0.75)

(* -------------------------------------------------------- factor-once *)

(* The factor-once fast path (assemble + factor the linear system once, then
   only rebuild the RHS) must reproduce the per-step reassembly path sample
   for sample.  One builder per stamp class, checked under both
   integrators. *)

let build_rc_ladder () =
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" in
  Netlist.force_voltage nl src (step 1.);
  let prev = ref src and probes = ref [ src ] in
  for i = 1 to 20 do
    let nd = Netlist.node nl (Printf.sprintf "n%d" i) in
    Netlist.resistor nl !prev nd 50.;
    Netlist.capacitor nl nd Netlist.ground 20e-15;
    prev := nd;
    probes := nd :: !probes
  done;
  (nl, !probes)

let build_rlc_ladder () =
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" in
  Netlist.force_voltage nl src (step 1.);
  let prev = ref src and probes = ref [ src ] in
  for i = 1 to 12 do
    let mid = Netlist.node nl (Printf.sprintf "m%d" i) in
    let nd = Netlist.node nl (Printf.sprintf "n%d" i) in
    Netlist.resistor nl !prev mid 5.;
    Netlist.inductor nl mid nd 0.4e-9;
    Netlist.capacitor nl nd Netlist.ground 80e-15;
    prev := nd;
    probes := nd :: mid :: !probes
  done;
  (nl, !probes)

let build_coupled_pair () =
  (* Aggressor drives a coupled segment; victim closed through a resistor so
     mutual inductance induces observable noise. *)
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" in
  Netlist.force_voltage nl src (step 1.);
  let a1 = Netlist.node nl "a1" and a2 = Netlist.node nl "a2" in
  let b1 = Netlist.node nl "b1" and b2 = Netlist.node nl "b2" in
  Netlist.resistor nl src a1 25.;
  Netlist.coupled_pair nl (a1, a2) 2e-9 (b1, b2) 2e-9 ~k:0.5;
  Netlist.capacitor nl a2 Netlist.ground 0.2e-12;
  Netlist.resistor nl b1 Netlist.ground 50.;
  Netlist.capacitor nl b2 Netlist.ground 0.2e-12;
  Netlist.resistor nl b2 Netlist.ground 1e3;
  (nl, [ a1; a2; b1; b2 ])

let build_nonlinear_clamp ?(drive = step 1.) ?pwl () =
  (* Step through a resistor into a capacitor clamped by a diode: exercises
     the Newton path (several iterations per step) on top of linear
     stamps.  [pwl], when given, replaces the closure [drive]. *)
  let is_ = 1e-14 and vt = 0.02585 in
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and out = Netlist.node nl "out" in
  (match pwl with
  | Some p -> Netlist.force_pwl nl src p
  | None -> Netlist.force_voltage nl src drive);
  Netlist.resistor nl src out 1e3;
  Netlist.capacitor nl out Netlist.ground 0.1e-12;
  Netlist.nonlinear nl
    {
      Netlist.nl_name = "diode";
      nl_nodes = [| out |];
      nl_eval =
        (fun v ->
          let x = Float.min (v.(0) /. vt) 60. in
          let e = Float.exp x in
          ([| is_ *. (e -. 1.) |], [| [| is_ *. e /. vt |] |]));
    };
  (nl, [ src; out ])

let check_factored_equivalence name build ~dt ~t_stop () =
  List.iter
    (fun (tag, integration) ->
      let nl, probes = build () in
      let options = { (Engine.default_options ~dt ~t_stop) with Engine.integration } in
      let fast = Engine.transient ~options ~dt ~t_stop nl in
      let naive = Reassembly_oracle.transient options nl in
      Alcotest.(check int)
        (Printf.sprintf "%s/%s newton total" name tag)
        (Reassembly_oracle.newton_total naive) (Engine.newton_total fast);
      List.iter
        (fun node ->
          let vf = Waveform.values (Engine.voltage fast node) in
          let vn = Reassembly_oracle.values naive node in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s sample count" name tag)
            (Array.length vn) (Array.length vf);
          Array.iteri
            (fun i v ->
              if v <> vn.(i) then
                Alcotest.failf "%s/%s: node %s step %d: fast %.17g <> naive %.17g" name tag
                  (Netlist.node_name nl node) i v vn.(i))
            vf)
        probes)
    [ ("trap", Engine.Trapezoidal); ("be", Engine.Backward_euler) ]

let test_equiv_rc () = check_factored_equivalence "rc-ladder" build_rc_ladder ~dt:1e-12 ~t_stop:0.5e-9 ()
let test_equiv_rlc () = check_factored_equivalence "rlc-ladder" build_rlc_ladder ~dt:0.5e-12 ~t_stop:0.5e-9 ()

let test_equiv_coupled () =
  check_factored_equivalence "coupled-pair" build_coupled_pair ~dt:1e-12 ~t_stop:1e-9 ()

let test_equiv_nonlinear () =
  check_factored_equivalence "nonlinear-clamp" build_nonlinear_clamp ~dt:1e-12 ~t_stop:0.5e-9 ()

let test_record_nodes () =
  let nl, probes = build_rc_ladder () in
  let out = List.hd probes in
  let some_mid = List.nth probes 10 in
  let full = Engine.transient ~dt:1e-12 ~t_stop:0.2e-9 nl in
  let sel = Engine.transient ~record_nodes:[ out ] ~dt:1e-12 ~t_stop:0.2e-9 nl in
  Alcotest.(check bool) "probe recorded" true (Engine.is_recorded sel out);
  Alcotest.(check bool) "other node dropped" false (Engine.is_recorded sel some_mid);
  let vf = Waveform.values (Engine.voltage full out) in
  let vs = Waveform.values (Engine.voltage sel out) in
  Array.iteri
    (fun i v ->
      if v <> vs.(i) then
        Alcotest.failf "selective recording changed the waveform at step %d" i)
    vf;
  (match Engine.voltage sel some_mid with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "voltage on an unrecorded node must raise");
  match Engine.transient ~record_nodes:[ 9999 ] ~dt:1e-12 ~t_stop:0.1e-9 nl with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range record node must be rejected"

(* ------------------------------------------------------------ adaptive *)

(* Ramp source with declared corner breakpoints into an RC: the adaptive
   grid must track the fixed-step reference within the LTE budget while
   taking far fewer steps, and must land exactly on the declared kinks. *)
let build_ramp_rc () =
  let t0 = 10e-12 and tr = 50e-12 in
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and out = Netlist.node nl "out" in
  Netlist.force_voltage nl ~breakpoints:[ t0; t0 +. tr ] src (fun t ->
      if t <= t0 then 0. else if t >= t0 +. tr then 1. else (t -. t0) /. tr);
  Netlist.resistor nl src out 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-12;
  (nl, out, t0, tr)

let test_adaptive_rc () =
  let t_stop = 5e-9 in
  let nl_f, out_f, _, _ = build_ramp_rc () in
  let fixed = Engine.transient ~dt:0.25e-12 ~t_stop nl_f in
  let nl_a, out_a, _, _ = build_ramp_rc () in
  (* ltol pinned to 1 mV: this test scores waveform tracking against the LTE
     budget (the looser timing-grade default is scored in test_ceff). *)
  let adaptive = Engine.default_adaptive ~dt_min:0.25e-12 ~ltol:1e-3 () in
  let ad = Engine.transient ~adaptive ~dt:0.25e-12 ~t_stop nl_a in
  let wf = Engine.voltage fixed out_f and wa = Engine.voltage ad out_a in
  List.iter
    (fun t ->
      check_float ~eps:2e-3
        (Printf.sprintf "adaptive rc at %g" t)
        (Waveform.value_at wf t) (Waveform.value_at wa t))
    [ 30e-12; 60e-12; 0.2e-9; 0.5e-9; 1e-9; 2e-9; 4e-9 ];
  Alcotest.(check bool)
    (Printf.sprintf "3x fewer steps (%d adaptive vs %d fixed)" (Engine.steps ad)
       (Engine.steps fixed))
    true
    (Engine.steps ad * 3 <= Engine.steps fixed);
  Alcotest.(check bool)
    (Printf.sprintf "refactors (%d) << steps (%d)" (Engine.refactors ad) (Engine.steps ad))
    true
    (Engine.refactors ad * 4 <= Engine.steps ad)

let test_adaptive_breakpoints_exact () =
  let t_stop = 1e-9 in
  let nl, _, t0, tr = build_ramp_rc () in
  let adaptive = Engine.default_adaptive ~dt_min:0.25e-12 () in
  let r = Engine.transient ~adaptive ~dt:0.25e-12 ~t_stop nl in
  let ts = Engine.times r in
  let hit x = Array.exists (fun v -> v = x) ts in
  Alcotest.(check bool) "ramp start hit exactly" true (hit t0);
  Alcotest.(check bool) "ramp end hit exactly" true (hit (t0 +. tr));
  Alcotest.(check bool) "t_stop hit exactly" true (ts.(Array.length ts - 1) = t_stop);
  (* Times strictly increasing on the adaptive grid. *)
  let mono = ref true in
  for i = 1 to Array.length ts - 1 do
    if ts.(i) <= ts.(i - 1) then mono := false
  done;
  Alcotest.(check bool) "strictly increasing grid" true !mono

let test_adaptive_rlc_rings () =
  (* Underdamped series RLC: the LTE control must shrink steps through the
     ringing; the analytic solution is the referee. *)
  let r = 20. and l = 5e-9 and c = 1e-12 and v = 1. in
  let build () =
    let nl = Netlist.create () in
    let src = Netlist.node nl "src" and mid = Netlist.node nl "mid" and out = Netlist.node nl "out" in
    Netlist.force_voltage nl src (step v);
    Netlist.resistor nl src mid r;
    Netlist.inductor nl mid out l;
    Netlist.capacitor nl out Netlist.ground c;
    (nl, out)
  in
  let nl, out = build () in
  let adaptive = Engine.default_adaptive ~dt_min:0.2e-12 ~ltol:1e-3 () in
  let res = Engine.transient ~adaptive ~dt:0.2e-12 ~t_stop:2e-9 nl in
  let w = Engine.voltage res out in
  let wn = 1. /. Float.sqrt (l *. c) in
  let zeta = r /. 2. *. Float.sqrt (c /. l) in
  let wd = wn *. Float.sqrt (1. -. (zeta *. zeta)) in
  let expected t =
    let e = Float.exp (-.zeta *. wn *. t) in
    v *. (1. -. (e *. (Float.cos (wd *. t) +. (zeta /. Float.sqrt (1. -. (zeta *. zeta)) *. Float.sin (wd *. t)))))
  in
  List.iter
    (fun t ->
      check_float ~eps:8e-3 (Printf.sprintf "adaptive rlc at %g" t) (expected t)
        (Waveform.value_at w t))
    [ 0.1e-9; 0.22e-9; 0.5e-9; 1.0e-9; 1.8e-9 ];
  Alcotest.(check bool) "overshoots" true (Waveform.v_max w > 1.2)

let test_adaptive_obs_reconcile () =
  let module Obs = Rlc_obs.Obs in
  let obs = Obs.create () in
  let nl, _, _, _ = build_ramp_rc () in
  let adaptive = Engine.default_adaptive ~dt_min:0.25e-12 () in
  let r = Engine.transient ~obs ~adaptive ~dt:0.25e-12 ~t_stop:2e-9 nl in
  let m = Obs.snapshot obs in
  Alcotest.(check int) "steps counter" (Engine.steps r) (Obs.counter m "engine.steps");
  Alcotest.(check int) "rejected counter" (Engine.steps_rejected r)
    (Obs.counter m "engine.steps_rejected");
  Alcotest.(check int) "refactor counter" (Engine.refactors r) (Obs.counter m "engine.refactors");
  (* The step-size histogram saw exactly the accepted steps. *)
  let hist = List.assoc_opt "engine.step_size_ns" m.Obs.m_stats in
  (match hist with
  | None -> Alcotest.fail "step-size histogram missing"
  | Some s -> Alcotest.(check int) "histogram count" (Engine.steps r) s.Obs.count);
  (* Fixed-step runs keep the adaptive stats at zero. *)
  let nl2, _, _, _ = build_ramp_rc () in
  let rf = Engine.transient ~dt:0.5e-12 ~t_stop:0.5e-9 nl2 in
  Alcotest.(check int) "fixed: no rejections" 0 (Engine.steps_rejected rf);
  Alcotest.(check int) "fixed: no refactor stat" 0 (Engine.refactors rf)

let test_adaptive_nonlinear () =
  (* Newton path under adaptive stepping: diode-clamped RC, compared against
     a fine fixed-step run. *)
  let t_stop = 0.5e-9 in
  let nl_f, probes_f = build_nonlinear_clamp () in
  let fixed = Engine.transient ~dt:0.25e-12 ~t_stop nl_f in
  let nl_a, probes_a = build_nonlinear_clamp () in
  let adaptive = Engine.default_adaptive ~dt_min:0.25e-12 ~ltol:1e-3 () in
  let ad = Engine.transient ~adaptive ~dt:0.25e-12 ~t_stop nl_a in
  let out_f = List.nth probes_f 1 and out_a = List.nth probes_a 1 in
  let wf = Engine.voltage fixed out_f and wa = Engine.voltage ad out_a in
  List.iter
    (fun t ->
      check_float ~eps:2e-3
        (Printf.sprintf "adaptive diode at %g" t)
        (Waveform.value_at wf t) (Waveform.value_at wa t))
    [ 0.05e-9; 0.1e-9; 0.2e-9; 0.45e-9 ]

let test_adaptive_rejects_bad_params () =
  let nl, _, _, _ = build_ramp_rc () in
  let bad a =
    match Engine.transient ~adaptive:a ~dt:1e-12 ~t_stop:1e-9 nl with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "dt_min <= 0" true
    (bad { Engine.dt_min = 0.; dt_max = 1e-12; ltol = 1e-3 });
  Alcotest.(check bool) "dt_max < dt_min" true
    (bad { Engine.dt_min = 1e-12; dt_max = 0.5e-12; ltol = 1e-3 });
  Alcotest.(check bool) "ltol <= 0" true
    (bad { Engine.dt_min = 1e-12; dt_max = 4e-12; ltol = 0. });
  Alcotest.(check bool) "dt_min nan" true
    (bad { Engine.dt_min = Float.nan; dt_max = 1e-12; ltol = 1e-3 });
  Alcotest.(check bool) "dt_min inf" true
    (bad { Engine.dt_min = Float.infinity; dt_max = Float.infinity; ltol = 1e-3 });
  Alcotest.(check bool) "dt_max nan" true
    (bad { Engine.dt_min = 1e-12; dt_max = Float.nan; ltol = 1e-3 });
  Alcotest.(check bool) "dt_max inf" true
    (bad { Engine.dt_min = 1e-12; dt_max = Float.infinity; ltol = 1e-3 });
  Alcotest.(check bool) "ltol nan" true
    (bad { Engine.dt_min = 1e-12; dt_max = 4e-12; ltol = Float.nan });
  Alcotest.(check bool) "ltol inf" true
    (bad { Engine.dt_min = 1e-12; dt_max = 4e-12; ltol = Float.infinity });
  let bad_fixed ~dt ~t_stop =
    match Engine.transient ~dt ~t_stop nl with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "fixed dt nan" true (bad_fixed ~dt:Float.nan ~t_stop:1e-9);
  Alcotest.(check bool) "fixed dt inf" true (bad_fixed ~dt:Float.infinity ~t_stop:1e-9);
  Alcotest.(check bool) "fixed t_stop nan" true (bad_fixed ~dt:1e-12 ~t_stop:Float.nan);
  Alcotest.(check bool) "compiled run dt nan" true
    (match Engine.Compiled.run ~dt:Float.nan ~t_stop:1e-9 (Engine.Compiled.compile nl) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ----------------------------------------------------------- netlist *)

let test_floating_node_rejected () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" and b = Netlist.node nl "b" in
  Netlist.resistor nl a b 1e3;
  Alcotest.(check bool) "floating pair detected" true
    (match Netlist.validate nl with _ -> false | exception Failure _ -> true)

let test_double_force_rejected () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  Netlist.force_voltage nl a (fun _ -> 1.);
  Alcotest.(check bool) "double force" true
    (match Netlist.force_voltage nl a (fun _ -> 2.) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "force ground" true
    (match Netlist.force_voltage nl Netlist.ground (fun _ -> 2.) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_invalid_element_values () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  Alcotest.(check bool) "zero resistance" true
    (match Netlist.resistor nl a Netlist.ground 0. with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "negative capacitance" true
    (match Netlist.capacitor nl a Netlist.ground (-1e-15) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_engine_stats_and_options () =
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and out = Netlist.node nl "out" in
  Netlist.force_voltage nl src (step 1.);
  Netlist.resistor nl src out 1e3;
  Netlist.capacitor nl out Netlist.ground 1e-12;
  let r = Engine.transient ~dt:10e-12 ~t_stop:1e-9 nl in
  Alcotest.(check int) "step count" 100 (Engine.steps r);
  (* Linear circuit: exactly one solve per step. *)
  Alcotest.(check int) "newton total" 100 (Engine.newton_total r);
  Alcotest.(check int) "newton worst" 1 (Engine.newton_worst r);
  Alcotest.(check bool) "invalid dt rejected" true
    (match Engine.transient ~dt:0. ~t_stop:1e-9 nl with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_nonlinear_newton_counts () =
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and out = Netlist.node nl "out" in
  Netlist.force_voltage nl src (step 1.);
  Netlist.resistor nl src out 1e3;
  Netlist.nonlinear nl (nonlinear_resistor out 1e-3);
  let r = Engine.transient ~dt:10e-12 ~t_stop:0.2e-9 nl in
  (* Nonlinear path needs at least the verification iteration. *)
  Alcotest.(check bool) "newton ran" true (Engine.newton_total r >= Engine.steps r);
  Alcotest.(check bool) "bounded iterations" true (Engine.newton_worst r <= 10)

let test_pp_summary () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "a" in
  Netlist.force_voltage nl a (fun _ -> 1.);
  let b = Netlist.node nl "b" in
  Netlist.resistor nl a b 10.;
  Netlist.capacitor nl b Netlist.ground 1e-15;
  let s = Format.asprintf "%a" Netlist.pp_summary nl in
  Alcotest.(check string) "summary" "netlist<3 nodes, 1R 1C 0L 0I 0K 0 nonlinear, 1 forced>" s

let test_node_names () =
  let nl = Netlist.create () in
  let a = Netlist.node nl "alpha" in
  let b = Netlist.node nl "beta" in
  Alcotest.(check string) "ground name" "gnd" (Netlist.node_name nl Netlist.ground);
  Alcotest.(check string) "first" "alpha" (Netlist.node_name nl a);
  Alcotest.(check string) "second" "beta" (Netlist.node_name nl b)

(* ------------------------------------------------------------ property *)

let prop_rc_charge_conservation =
  QCheck.Test.make ~name:"RC step settles to the source voltage" ~count:25
    QCheck.(pair (float_range 100. 5000.) (float_range 0.1e-12 2e-12))
    (fun (r, c) ->
      let nl = Netlist.create () in
      let src = Netlist.node nl "src" and out = Netlist.node nl "out" in
      Netlist.force_voltage nl src (step 1.5);
      Netlist.resistor nl src out r;
      Netlist.capacitor nl out Netlist.ground c;
      let tau = r *. c in
      let res = Engine.transient ~dt:(tau /. 200.) ~t_stop:(8. *. tau) nl in
      Float.abs (Engine.voltage_at res out (7.5 *. tau) -. 1.5) < 5e-3)

(* ------------------------------------------------------------ compiled *)

(* Bit-identity: a compiled handle must consume exactly the floats a fresh
   Engine.transient consumes — waveforms compare with (<>), never with a
   tolerance — across circuit kinds, integration methods, and stepping
   modes.  Each handle runs twice so the second run exercises the cached DC
   entry and the per-(integration, dt) transient-state reuse. *)
let check_compiled_identity name build ~dt ~t_stop () =
  List.iter
    (fun (tag, integration) ->
      List.iter
        (fun (mode, adaptive) ->
          let nl, probes = build () in
          let options = { (Engine.default_options ~dt ~t_stop) with Engine.integration } in
          let fresh = Engine.transient ~options ?adaptive ~dt ~t_stop nl in
          let h = Engine.Compiled.compile nl in
          List.iteri
            (fun k r ->
              if Engine.times fresh <> Engine.times r then
                Alcotest.failf "%s/%s/%s run %d: time grids differ" name tag mode k;
              List.iter
                (fun node ->
                  let vf = Waveform.values (Engine.voltage fresh node) in
                  let vr = Waveform.values (Engine.voltage r node) in
                  Array.iteri
                    (fun i v ->
                      if v <> vr.(i) then
                        Alcotest.failf
                          "%s/%s/%s run %d: node %s step %d: fresh %.17g <> compiled %.17g"
                          name tag mode k (Netlist.node_name nl node) i v vr.(i))
                    vf)
                probes)
            [
              Engine.Compiled.run ~options ?adaptive ~dt ~t_stop h;
              Engine.Compiled.run ~options ?adaptive ~dt ~t_stop h;
            ])
        [ ("fixed", None); ("adaptive", Some (Engine.default_adaptive ~dt_min:dt ())) ])
    [ ("trap", Engine.Trapezoidal); ("be", Engine.Backward_euler) ]

let test_compiled_rc () =
  check_compiled_identity "rc-ladder" build_rc_ladder ~dt:1e-12 ~t_stop:0.5e-9 ()

let test_compiled_rlc () =
  check_compiled_identity "rlc-ladder" build_rlc_ladder ~dt:0.5e-12 ~t_stop:0.5e-9 ()

let test_compiled_coupled () =
  check_compiled_identity "coupled-pair" build_coupled_pair ~dt:1e-12 ~t_stop:1e-9 ()

let test_compiled_nonlinear () =
  check_compiled_identity "nonlinear-clamp" build_nonlinear_clamp ~dt:1e-12 ~t_stop:0.5e-9 ()

(* Early stop: a run with [~stop_after] must be, bit for bit, the
   unstopped run's prefix through the step on which the last listed entry
   makes its first crossing — so every listed first-crossing measurement
   is unchanged — across circuit kinds, integrators and stepping modes.
   The stop lists mix directions and are built from the full run ([stops]
   gets the builder's netlist, probes and the full result), and the
   expected stop step is computed independently from the full waveforms.
   Each handle runs full, stopped, full again, so a stopped run must also
   leave the handle's cached state fit for reuse. *)
let first_cross_index vs dir level =
  let n = Array.length vs in
  let rec go i =
    if i >= n then None
    else
      let hit =
        match dir with
        | Waveform.Rising -> vs.(i - 1) < level && vs.(i) >= level
        | Waveform.Falling -> vs.(i - 1) > level && vs.(i) <= level
      in
      if hit then Some i else go (i + 1)
  in
  go 1

(* Midway between a node's peak and its final value: a ringing node falls
   through it after the peak. *)
let fall_level r node =
  let w = Engine.voltage r node in
  let peak = Waveform.v_max w and final = Waveform.v_final w in
  if peak -. final < 1e-3 then
    Alcotest.failf "no falling edge after the peak (%g -> %g)" peak final;
  0.5 *. (peak +. final)

let probe nl probes name = List.find (fun p -> Netlist.node_name nl p = name) probes

let check_stop_prefix name build ~stops ~dt ~t_stop () =
  let module Obs = Rlc_obs.Obs in
  let bits = Int64.bits_of_float in
  List.iter
    (fun (tag, integration) ->
      List.iter
        (fun (mode, adaptive) ->
          let ctx = Printf.sprintf "%s/%s/%s" name tag mode in
          let nl, probes = build () in
          let options = { (Engine.default_options ~dt ~t_stop) with Engine.integration } in
          let h = Engine.Compiled.compile nl in
          let run ?obs ?record_nodes ?stop_after () =
            let stop_after =
              Option.map (List.map (fun (n, d, l) -> (n, Engine.Crossing (d, l)))) stop_after
            in
            Engine.Compiled.run ?obs ~options ?adaptive ?record_nodes ?stop_after ~dt ~t_stop h
          in
          let full = run () in
          let stop_after = stops nl probes full in
          let dirs = List.sort_uniq compare (List.map (fun (_, d, _) -> d) stop_after) in
          Alcotest.(check int) (ctx ^ ": mixed directions") 2 (List.length dirs);
          let cross_index (node, dir, level) =
            match first_cross_index (Waveform.values (Engine.voltage full node)) dir level with
            | Some i -> i
            | None -> Alcotest.failf "%s: entry at %g never crosses in the full run" ctx level
          in
          let last = List.fold_left (fun acc e -> Int.max acc (cross_index e)) 0 stop_after in
          let obs = Obs.create () in
          let stopped = run ~obs ~stop_after () in
          let again = run () in
          let tf = Engine.times full and ts = Engine.times stopped in
          let n = Array.length ts in
          if Engine.times again <> tf then Alcotest.failf "%s: rerun after a stop differs" ctx;
          if n >= Array.length tf then
            Alcotest.failf "%s: no early stop (%d of %d samples)" ctx n (Array.length tf);
          Alcotest.(check int) (ctx ^ ": ends on the last entry's crossing step") last (n - 1);
          if Array.sub tf 0 n <> ts then Alcotest.failf "%s: stopped times not a prefix" ctx;
          List.iter
            (fun p ->
              let vf = Waveform.values (Engine.voltage full p) in
              let vs = Waveform.values (Engine.voltage stopped p) in
              Array.iteri
                (fun i v ->
                  if bits v <> bits vf.(i) then
                    Alcotest.failf "%s: node %s step %d: stopped %.17g <> full %.17g" ctx
                      (Netlist.node_name nl p) i v vf.(i))
                vs)
            probes;
          (* Every listed first crossing reads the same bits. *)
          List.iter
            (fun (node, direction, level) ->
              let t_cross r = Waveform.first_crossing (Engine.voltage r node) ~level ~direction in
              match (t_cross full, t_cross stopped) with
              | Some a, Some b when bits a = bits b -> ()
              | _ -> Alcotest.failf "%s: first crossing of %g moved" ctx level)
            stop_after;
          (* The list is a set: its order does not move the stop. *)
          if Engine.times (run ~stop_after:(List.rev stop_after) ()) <> ts then
            Alcotest.failf "%s: reversed stop list stopped elsewhere" ctx;
          (* Counters count executed steps only. *)
          let m = Obs.snapshot obs in
          Alcotest.(check int) (ctx ^ ": steps") (n - 1) (Engine.steps stopped);
          Alcotest.(check int) (ctx ^ ": steps counter") (n - 1) (Obs.counter m "engine.steps");
          Alcotest.(check int)
            (ctx ^ ": newton counter") (Engine.newton_total stopped)
            (Obs.counter m "engine.newton_iters");
          Alcotest.(check bool)
            (ctx ^ ": fewer newton iterations") true
            (Engine.newton_total stopped < Engine.newton_total full);
          Alcotest.(check int) (ctx ^ ": early stop counted") 1 (Obs.counter m "engine.early_stops");
          let loop = List.find (fun sp -> sp.Obs.sp_name = "engine.step_loop") m.Obs.m_spans in
          Alcotest.(check string)
            (ctx ^ ": stopped arg") (string_of_int (n - 1))
            (List.assoc "stopped" loop.Obs.sp_args);
          (* One entry never reached, or no entry at all, leaves the run
             whole, and is not counted as a stop. *)
          let node, _, _ = List.hd stop_after in
          List.iter
            (fun (what, stop_after) ->
              let obs = Obs.create () in
              let whole = run ~obs ~stop_after () in
              if Engine.times whole <> tf then Alcotest.failf "%s: %s cut the run" ctx what;
              List.iter
                (fun p ->
                  if
                    Waveform.values (Engine.voltage whole p)
                    <> Waveform.values (Engine.voltage full p)
                  then
                    Alcotest.failf "%s: %s changed node %s" ctx what (Netlist.node_name nl p))
                probes;
              Alcotest.(check int)
                (ctx ^ ": " ^ what ^ " newton") (Engine.newton_total full)
                (Engine.newton_total whole);
              Alcotest.(check int)
                (ctx ^ ": " ^ what ^ " not counted") 0
                (Obs.counter (Obs.snapshot obs) "engine.early_stops"))
            [ ("unreached entry", stop_after @ [ (node, Waveform.Rising, 10.) ]); ("[]", []) ];
          (* Every stop node must be recorded. *)
          let other = List.find (fun p -> p <> node) probes in
          match run ~record_nodes:[ other ] ~stop_after () with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "%s: unrecorded stop node accepted" ctx)
        [ ("fixed", None); ("adaptive", Some (Engine.default_adaptive ~dt_min:dt ())) ])
    [ ("trap", Engine.Trapezoidal); ("be", Engine.Backward_euler) ]

let test_stop_rlc () =
  (* Far end rising, a ringing near node falling back from its peak. *)
  check_stop_prefix "rlc-ladder" build_rlc_ladder
    ~stops:(fun nl probes full ->
      let n1 = probe nl probes "n1" and n6 = probe nl probes "n6" in
      [
        (List.hd probes, Waveform.Rising, 0.5);
        (n1, Waveform.Falling, fall_level full n1);
        (n6, Waveform.Rising, 0.9);
      ])
    ~dt:0.5e-12 ~t_stop:0.5e-9 ()

let test_stop_coupled () =
  (* Rise and ring-down of the aggressor's far end plus the victim. *)
  check_stop_prefix "coupled-pair" build_coupled_pair
    ~stops:(fun nl probes full ->
      let a2 = probe nl probes "a2" in
      [
        (a2, Waveform.Rising, 0.5);
        (a2, Waveform.Falling, fall_level full a2);
        (probe nl probes "a1", Waveform.Rising, 0.2);
      ])
    ~dt:1e-12 ~t_stop:1e-9 ()

(* The diode clamp driven by a 1 V pulse that drops back to 0 at 0.2 ns:
   the Newton path with a rising and a falling edge. *)
let build_nonlinear_pulse () =
  build_nonlinear_clamp ~drive:(fun t -> if t <= 0. || t > 0.2e-9 then 0. else 1.) ()

let test_stop_nonlinear () =
  check_stop_prefix "nonlinear-clamp" build_nonlinear_pulse
    ~stops:(fun nl probes _ ->
      let out = probe nl probes "out" in
      [ (out, Waveform.Rising, 0.3); (out, Waveform.Falling, 0.2) ])
    ~dt:1e-12 ~t_stop:0.5e-9 ()

let build_rc_pair r c =
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and out = Netlist.node nl "out" in
  Netlist.force_voltage nl src (step 1.);
  Netlist.resistor nl src out r;
  Netlist.capacitor nl out Netlist.ground c;
  (nl, out)

let assert_same_waveform msg fresh compiled node =
  let vf = Waveform.values (Engine.voltage fresh node) in
  let vc = Waveform.values (Engine.voltage compiled node) in
  Array.iteri
    (fun i v ->
      if v <> vc.(i) then
        Alcotest.failf "%s: step %d: fresh %.17g <> compiled %.17g" msg i v vc.(i))
    vf

let test_compiled_restamp () =
  (* New element values into a used handle: results must match a fresh
     compile of the new netlist exactly (stale companion history, cached DC
     and cached states must all be invalidated). *)
  let nl1, _ = build_rc_pair 1e3 1e-12 in
  let h = Engine.Compiled.compile nl1 in
  let (_ : Engine.result) = Engine.Compiled.run ~dt:5e-12 ~t_stop:2e-9 h in
  let nl2, out2 = build_rc_pair 2e3 0.5e-12 in
  Engine.Compiled.restamp h nl2;
  let r2 = Engine.Compiled.run ~dt:5e-12 ~t_stop:2e-9 h in
  let fresh2 = Engine.transient ~dt:5e-12 ~t_stop:2e-9 nl2 in
  assert_same_waveform "restamped values" fresh2 r2 out2;
  (* Identical values restamped after a run must also replay cleanly (the
     handle keeps its cached state on a value-identical restamp). *)
  Engine.Compiled.restamp h nl2;
  let r3 = Engine.Compiled.run ~dt:5e-12 ~t_stop:2e-9 h in
  assert_same_waveform "identical restamp" fresh2 r3 out2;
  (* A structurally different netlist must be rejected, not absorbed. *)
  let nl3, out3 = build_rc_pair 1e3 1e-12 in
  Netlist.capacitor nl3 out3 Netlist.ground 1e-15;
  match Engine.Compiled.restamp h nl3 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "restamp with extra element must raise"

let handle_stats () =
  let (Rlc_memo.Memo.View m) = Engine.Compiled.memo in
  Rlc_memo.Memo.stats m

let test_compiled_cache_keying () =
  Engine.Compiled.clear_cache ();
  let s0 = handle_stats () in
  let nl1, _ = build_rc_pair 1e3 1e-12 in
  let ha = Engine.Compiled.cached nl1 in
  (* Same structure, different values: must hit and restamp, not rebuild. *)
  let nl2, out2 = build_rc_pair 2e3 2e-12 in
  let hb = Engine.Compiled.cached nl2 in
  Alcotest.(check bool) "same-structure netlists share the handle" true (ha == hb);
  let s1 = handle_stats () in
  Alcotest.(check int) "first lookup missed" 1 (s1.misses - s0.misses);
  Alcotest.(check int) "second lookup hit" 1 (s1.hits - s0.hits);
  (* The restamped hit must still be exact. *)
  let r = Engine.Compiled.run ~dt:5e-12 ~t_stop:2e-9 hb in
  let fresh = Engine.transient ~dt:5e-12 ~t_stop:2e-9 nl2 in
  assert_same_waveform "cached handle after restamp" fresh r out2;
  (* A different topology (one more element) must key to a fresh handle. *)
  let nl3, out3 = build_rc_pair 1e3 1e-12 in
  Netlist.capacitor nl3 out3 Netlist.ground 5e-15;
  let hc = Engine.Compiled.cached nl3 in
  Alcotest.(check bool) "different structure gets its own handle" true (hc != ha);
  let s2 = handle_stats () in
  Alcotest.(check int) "topology change missed" 1 (s2.misses - s1.misses);
  Engine.Compiled.clear_cache ()

let test_compiled_cache_per_domain () =
  (* Handle scratch is mutated by every run, so two domains caching one
     structure must each get their own handle, and an exited domain's
     handles must not stay resident. *)
  Engine.Compiled.clear_cache ();
  let s0 = handle_stats () in
  let in_domain () =
    Domain.join (Domain.spawn (fun () -> Engine.Compiled.cached (fst (build_rc_pair 1e3 1e-12))))
  in
  let h1 = in_domain () and h2 = in_domain () in
  let here = Engine.Compiled.cached (fst (build_rc_pair 1e3 1e-12)) in
  Alcotest.(check bool) "two domains, two handles" true (h1 != h2);
  Alcotest.(check bool) "the calling domain has its own" true (here != h1 && here != h2);
  let s1 = handle_stats () in
  Alcotest.(check int) "three misses" 3 (s1.misses - s0.misses);
  Alcotest.(check int) "no hits" 0 (s1.hits - s0.hits);
  (* A domain drops its handles when it exits. *)
  Alcotest.(check int) "only the live domain's handle stays" 1 s1.entries;
  Alcotest.(check int) "the exited domains' handles were evicted" 2
    (s1.evictions - s0.evictions);
  Engine.Compiled.clear_cache ()

let test_compiled_cache_bounded () =
  (* More distinct structures than the memo holds: the entry count stays
     within the capacity, and a handle evicted on the way is compiled again
     and runs bit-identically to a fresh transient. *)
  Engine.Compiled.clear_cache ();
  let (Rlc_memo.Memo.View m) = Engine.Compiled.memo in
  let capacity = Rlc_memo.Memo.capacity m in
  let with_caps k =
    let nl, out = build_rc_pair 1e3 1e-12 in
    for _ = 1 to k do
      Netlist.capacitor nl out Netlist.ground 1e-15
    done;
    nl
  in
  ignore (Engine.Compiled.cached (fst (build_rc_pair 1e3 1e-12)));
  for k = 1 to 2 * capacity do
    ignore (Engine.Compiled.cached (with_caps k))
  done;
  let s = handle_stats () in
  Alcotest.(check bool)
    (Printf.sprintf "entries %d <= capacity %d" s.entries capacity)
    true (s.entries <= capacity);
  Alcotest.(check bool) "evicted" true (s.evictions > 0);
  let nl, out = build_rc_pair 2e3 2e-12 in
  let h = Engine.Compiled.cached nl in
  Alcotest.(check int) "the first structure was evicted and recompiled" (s.misses + 1)
    (handle_stats ()).misses;
  let fresh = Engine.transient ~dt:5e-12 ~t_stop:2e-9 nl in
  assert_same_waveform "recompiled handle" fresh (Engine.Compiled.run ~dt:5e-12 ~t_stop:2e-9 h) out;
  Engine.Compiled.clear_cache ()

(* ------------------------------------------------------------ max-final *)

(* A [Max_final] entry ends the run once a passivity bound proves its
   node's running maximum final.  Whether or not it fires, the run must be
   the unstopped run's bit-exact prefix, and the maximum (and every listed
   first crossing) must read the same bits as the full window.  Where the
   bound's conditions fail the entry must never fire. *)

let pwl_step ?(t0 = 10e-12) ?(tr = 10e-12) v =
  Pwl.of_points [ (0., 0.); (t0, 0.); (t0 +. tr, v) ]

let stepping_modes dt =
  List.concat_map
    (fun (tag, integration) ->
      List.map
        (fun (mode, adaptive) -> (tag ^ "/" ^ mode, integration, adaptive))
        [ ("fixed", None); ("adaptive", Some (Engine.default_adaptive ~dt_min:dt ())) ])
    [ ("trap", Engine.Trapezoidal); ("be", Engine.Backward_euler) ]

(* Run [nl] whole and with [stops] on one handle, check the stopped run
   against the whole one, and return whether it stopped early. *)
let max_final_prefix ctx nl ~stops ~dt ~t_stop ~integration ~adaptive =
  let module Obs = Rlc_obs.Obs in
  let bits = Int64.bits_of_float in
  let options = { (Engine.default_options ~dt ~t_stop) with Engine.integration } in
  let h = Engine.Compiled.compile nl in
  let run ?obs ?stop_after () =
    Engine.Compiled.run ?obs ~options ?adaptive ?stop_after ~dt ~t_stop h
  in
  let full = run () in
  let obs = Obs.create () in
  let stopped = run ~obs ~stop_after:stops () in
  let tf = Engine.times full and ts = Engine.times stopped in
  let n = Array.length ts in
  if n > Array.length tf || Array.sub tf 0 n <> ts then
    Alcotest.failf "%s: stopped times not a prefix" ctx;
  List.iter
    (fun node ->
      let vf = Waveform.values (Engine.voltage full node) in
      Array.iteri
        (fun i v ->
          if bits v <> bits vf.(i) then
            Alcotest.failf "%s: node %s step %d: stopped %.17g <> full %.17g" ctx
              (Netlist.node_name nl node) i v vf.(i))
        (Waveform.values (Engine.voltage stopped node)))
    (List.sort_uniq compare (List.map fst stops));
  List.iter
    (fun (node, stop) ->
      let w r = Engine.voltage r node in
      match stop with
      | Engine.Max_final ->
          let a = Waveform.v_max (w full) and b = Waveform.v_max (w stopped) in
          if bits a <> bits b then
            Alcotest.failf "%s: maximum of %s: stopped %.17g <> full %.17g" ctx
              (Netlist.node_name nl node) b a
      | Engine.Crossing (direction, level) ->
          let t r = Waveform.first_crossing (w r) ~level ~direction in
          if Option.map bits (t full) <> Option.map bits (t stopped) then
            Alcotest.failf "%s: first crossing of %g at %s moved" ctx level
              (Netlist.node_name nl node))
    stops;
  if Engine.times (run ()) <> tf then Alcotest.failf "%s: rerun after a stop differs" ctx;
  (* A stop on the window's last step counts without shortening it. *)
  let early = n < Array.length tf
  and counted = Obs.counter (Obs.snapshot obs) "engine.early_stops" in
  if (early && counted <> 1) || counted > 1 then
    Alcotest.failf "%s: %d early stops counted for %d of %d samples" ctx counted n
      (Array.length tf);
  early

(* [max_final_prefix] under trapezoidal/BE x fixed/adaptive (or the
   [only] integrator); [expect] says whether every run must stop early or
   none may. *)
let check_max_final ?only name build ~expect ~dt ~t_stop () =
  List.iter
    (fun (mode, integration, adaptive) ->
      let nl, stops = build () in
      let ctx = name ^ "/" ^ mode in
      let early = max_final_prefix ctx nl ~stops ~dt ~t_stop ~integration ~adaptive in
      if early <> expect then
        Alcotest.failf "%s: %s" ctx
          (if expect then "the bound never proved the maximum final"
           else "stopped outside the bound's conditions"))
    (List.filter
       (fun (_, integration, _) -> Option.fold ~none:true ~some:(( = ) integration) only)
       (stepping_modes dt))

(* Series R-L-C from a forced source node; the output is the capacitor. *)
let series_rlc ?(force = fun nl src -> Netlist.force_pwl nl src (pwl_step 1.)) ~r ~l ~c () =
  let nl = Netlist.create () in
  let src = Netlist.node nl "src" and mid = Netlist.node nl "mid" and out = Netlist.node nl "out" in
  force nl src;
  Netlist.resistor nl src mid r;
  Netlist.inductor nl mid out l;
  Netlist.capacitor nl out Netlist.ground c;
  (nl, out)

(* Coupled RLC lines in the shape of a crosstalk cluster: each member is an
   [n_seg]-segment R-L-C line behind a resistance [rs] — to a PWL source
   when it has a [drive], to ground when it is quiet — with its far-end
   load [cl]; member 0 couples to every other member through [cc] per
   segment.  Returns the far ends. *)
type line = {
  seg_r : float;
  seg_l : float;
  seg_c : float;
  rs : float;
  cl : float;
  drive : Pwl.t option;
}

let build_lines ~n_seg ~cc lines =
  let nl = Netlist.create () in
  let near =
    Array.mapi
      (fun j ln ->
        let nd = Netlist.node nl (Printf.sprintf "x%d_near" j) in
        (match ln.drive with
        | Some p ->
            let src = Netlist.node nl (Printf.sprintf "x%d_src" j) in
            Netlist.force_pwl nl src p;
            Netlist.resistor nl src nd ln.rs
        | None -> Netlist.resistor nl nd Netlist.ground ln.rs);
        nd)
      lines
  in
  let prev = ref near in
  for s = 1 to n_seg do
    let mids = Array.mapi (fun j _ -> Netlist.node nl (Printf.sprintf "x%d_m%d" j s)) lines in
    let nexts = Array.mapi (fun j _ -> Netlist.node nl (Printf.sprintf "x%d_n%d" j s)) lines in
    Array.iteri
      (fun j ln ->
        Netlist.resistor nl !prev.(j) mids.(j) ln.seg_r;
        Netlist.inductor nl mids.(j) nexts.(j) ln.seg_l;
        Netlist.capacitor nl nexts.(j) Netlist.ground ln.seg_c)
      lines;
    for j = 1 to Array.length lines - 1 do
      if cc > 0. then Netlist.capacitor nl nexts.(0) nexts.(j) cc
    done;
    prev := nexts
  done;
  Array.iteri
    (fun j ln -> if ln.cl > 0. then Netlist.capacitor nl !prev.(j) Netlist.ground ln.cl)
    lines;
  (nl, !prev)

(* A quiet victim line next to two rising aggressors: the crosstalk noise
   run's shape. *)
let noise_cluster () =
  let line drive = { seg_r = 4.; seg_l = 0.2e-9; seg_c = 40e-15; rs = 60.; cl = 10e-15; drive } in
  build_lines ~n_seg:8 ~cc:15e-15
    [| line None; line (Some (pwl_step ~tr:30e-12 1.)); line (Some (pwl_step ~t0:40e-12 1.)) |]

let test_max_final_fires () =
  check_max_final "series-rlc"
    (fun () ->
      let nl, out = series_rlc ~r:20. ~l:5e-9 ~c:1e-12 () in
      (nl, [ (out, Engine.Max_final); (out, Engine.Crossing (Waveform.Rising, 0.5)) ]))
    ~expect:true ~dt:1e-12 ~t_stop:3e-9 ();
  check_max_final "noise-cluster"
    (fun () ->
      let nl, far = noise_cluster () in
      (nl, [ (far.(0), Engine.Max_final) ]))
    ~expect:true ~dt:0.5e-12 ~t_stop:2e-9 ()

(* The true maximum comes after an earlier, lower local peak: the bound
   must not take the first peak for the last. *)
let test_max_final_late_peak () =
  let local_peak_first nl node ~dt ~t_stop =
    let vs = Waveform.values (Engine.voltage (Engine.transient ~dt ~t_stop nl) node) in
    let top = ref 0 in
    Array.iteri (fun i v -> if v > vs.(!top) then top := i) vs;
    let earlier = ref false in
    for i = 1 to !top - 1 do
      if vs.(i) > vs.(i - 1) && vs.(i) >= vs.(i + 1) && vs.(i) < vs.(!top) -. 1e-2 then
        earlier := true
    done;
    if not !earlier then
      Alcotest.failf "%s: no lower local peak before the maximum" (Netlist.node_name nl node)
  in
  (* Rs = Z0 / 2 into a 50-ohm line with a capacitive far end: the first
     reflection peaks at ~1.20 V, a later one at ~1.28 V. *)
  let reflection () =
    let line =
      { seg_r = 0.5; seg_l = 0.1e-9; seg_c = 40e-15; rs = 25.; cl = 50e-15; drive = Some (pwl_step 1.) }
    in
    let nl, far = build_lines ~n_seg:20 ~cc:0. [| line |] in
    (nl, [ (far.(0), Engine.Max_final) ])
  in
  let nl, stops = reflection () in
  local_peak_first nl (fst (List.hd stops)) ~dt:0.5e-12 ~t_stop:3e-9;
  check_max_final "mismatched-reflection" reflection ~expect:true ~dt:0.5e-12 ~t_stop:3e-9 ();
  (* The source steps to 0.5 V, rings and settles, pulses to 1 V at 1 ns
     and ends at 0 V.  Before the pulse the node's stored energy about the
     final 0 V point is below its first peak, so only the settle-time
     condition keeps the bound from calling that peak final. *)
  let late_pulse () =
    let pwl =
      Pwl.of_points
        [
          (0., 0.); (10e-12, 0.); (20e-12, 0.5); (1e-9, 0.5); (1.01e-9, 1.); (1.3e-9, 1.); (1.31e-9, 0.);
        ]
    in
    let nl, out =
      series_rlc ~force:(fun nl src -> Netlist.force_pwl nl src pwl) ~r:20. ~l:5e-9 ~c:1e-12 ()
    in
    (nl, [ (out, Engine.Max_final) ])
  in
  let nl, stops = late_pulse () in
  local_peak_first nl (fst (List.hd stops)) ~dt:1e-12 ~t_stop:4e-9;
  check_max_final "late-source-pulse" late_pulse ~expect:true ~dt:1e-12 ~t_stop:4e-9 ()

let test_max_final_never_fires () =
  let never name build ~dt ~t_stop = check_max_final name build ~expect:false ~dt ~t_stop () in
  let with_out f () =
    let nl, out = f () in
    (nl, [ (out, Engine.Max_final) ])
  in
  (* Nonlinear: the diode clamp behind a PWL step. *)
  never "diode-clamp"
    (with_out (fun () ->
         let nl, probes = build_nonlinear_clamp ~pwl:(pwl_step 1.) () in
         (nl, List.nth probes 1)))
    ~dt:1e-12 ~t_stop:1e-9;
  (* Coupled-inductor group. *)
  never "coupled-inductors"
    (with_out (fun () ->
         let nl = Netlist.create () in
         let src = Netlist.node nl "src" in
         Netlist.force_pwl nl src (pwl_step 1.);
         let a1 = Netlist.node nl "a1" and a2 = Netlist.node nl "a2" in
         let b1 = Netlist.node nl "b1" and b2 = Netlist.node nl "b2" in
         Netlist.resistor nl src a1 25.;
         Netlist.coupled_pair nl (a1, a2) 2e-9 (b1, b2) 2e-9 ~k:0.5;
         Netlist.capacitor nl a2 Netlist.ground 0.2e-12;
         Netlist.resistor nl b1 Netlist.ground 50.;
         Netlist.capacitor nl b2 Netlist.ground 0.2e-12;
         Netlist.resistor nl b2 Netlist.ground 1e3;
         (nl, a2)))
    ~dt:1e-12 ~t_stop:3e-9;
  (* A constant current source beside a settling RLC. *)
  never "current-source"
    (with_out (fun () ->
         let nl, out = series_rlc ~r:20. ~l:5e-9 ~c:1e-12 () in
         Netlist.current_source nl Netlist.ground out (fun _ -> 1e-6);
         (nl, out)))
    ~dt:1e-12 ~t_stop:3e-9;
  (* A closure source: its settle time is unknown. *)
  never "force-voltage-closure"
    (with_out
       (series_rlc
          ~force:(fun nl src -> Netlist.force_voltage nl src (step 1.))
          ~r:20. ~l:5e-9 ~c:1e-12))
    ~dt:1e-12 ~t_stop:3e-9;
  (* A node hanging off the output through capacitors only. *)
  never "floating-through-caps"
    (with_out (fun () ->
         let nl, out = series_rlc ~r:20. ~l:5e-9 ~c:1e-12 () in
         let x = Netlist.node nl "x" in
         Netlist.capacitor nl out x 0.5e-12;
         Netlist.capacitor nl x Netlist.ground 0.5e-12;
         (nl, out)))
    ~dt:1e-12 ~t_stop:3e-9;
  (* Settled current through an inductor (a resistive divider): the
     settled point is not a zero-current one. *)
  never "inductor-dc-current"
    (with_out (fun () ->
         let nl, out = series_rlc ~r:20. ~l:5e-9 ~c:1e-12 () in
         Netlist.resistor nl out Netlist.ground 100.;
         (nl, out)))
    ~dt:1e-12 ~t_stop:3e-9;
  (* A near-lossless line: the stored energy barely decays, so the bound
     stays above the far end's peak for the whole window (trapezoidal
     steps only: backward Euler damps the line numerically). *)
  check_max_final ~only:Engine.Trapezoidal ~expect:false "near-lossless-line"
    (fun () ->
      let line =
        { seg_r = 1e-3; seg_l = 0.1e-9; seg_c = 40e-15; rs = 1e-2; cl = 10e-15; drive = Some (pwl_step 1.) }
      in
      let nl, far = build_lines ~n_seg:20 ~cc:0. [| line |] in
      (nl, [ (far.(0), Engine.Max_final) ]))
    ~dt:0.5e-12 ~t_stop:2e-9 ();
  (* Overshoot below the 1 uV margin: the peak sits within the margin of
     the settled value, so it is never proven final. *)
  let damped () = series_rlc ~r:97.7 ~l:2.5e-9 ~c:1e-12 () in
  let nl, out = damped () in
  let w = Engine.voltage (Engine.transient ~dt:1e-12 ~t_stop:3e-9 nl) out in
  let over = Waveform.v_max w -. 1. in
  if not (over > 0. && over < 1e-6) then
    Alcotest.failf "damped RLC overshoot %g V is not inside (0, 1 uV)" over;
  never "overshoot-below-margin" (with_out damped) ~dt:1e-12 ~t_stop:3e-9

(* Property: random RLC lines and 2-3 member coupled clusters, random PWL
   drives, random mixes of crossing and max-final entries (a max-final
   entry on member 0's far end always among them), under both integrators
   and both stepping modes: every stopped run is the full run's bit-exact
   prefix and reads the same crossings and maxima. *)
type max_final_case = {
  lines : line array;
  n_seg : int;
  cc : float;
  stops : (int * Engine.stop) list;  (* far end of member [i] *)
  mode : int;  (* index into [stepping_modes] *)
}

let gen_max_final_case =
  let open QCheck.Gen in
  let gen_pwl =
    let* n = int_range 1 3 in
    let* steps = list_repeat n (pair (float_range 5e-12 80e-12) (float_range 0. 1.)) in
    let _, pts =
      List.fold_left
        (fun (t, acc) (dt, v) ->
          let t = t +. dt in
          (t, (t, v) :: acc))
        (0., [ (0., 0.) ])
        steps
    in
    return (Pwl.of_points (List.rev pts))
  in
  let gen_line =
    let* seg_r = float_range 1. 20. in
    let* seg_l = float_range 0.05e-9 0.5e-9 in
    let* seg_c = float_range 10e-15 60e-15 in
    let* rs = float_range 10. 200. in
    let* cl = float_range 0. 50e-15 in
    let* drive = opt gen_pwl in
    return { seg_r; seg_l; seg_c; rs; cl; drive }
  in
  let* k = int_range 1 3 in
  let* lines = list_repeat k gen_line in
  let* n_seg = int_range 2 6 in
  let* cc = float_range 0. 40e-15 in
  let gen_stop =
    let* who = int_range 0 (k - 1) in
    let* kind = int_range 0 2 in
    let* level = float_range (-0.1) 1.1 in
    return
      ( who,
        match kind with
        | 0 -> Engine.Max_final
        | 1 -> Engine.Crossing (Waveform.Rising, level)
        | _ -> Engine.Crossing (Waveform.Falling, level) )
  in
  let* more = list_size (int_range 0 3) gen_stop in
  let* mode = int_range 0 3 in
  return { lines = Array.of_list lines; n_seg; cc; stops = (0, Engine.Max_final) :: more; mode }

let print_max_final_case c =
  Printf.sprintf "%d member(s) x %d segments, cc %g, mode %d, drives [%s], stops [%s]"
    (Array.length c.lines) c.n_seg c.cc c.mode
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun l ->
               match l.drive with
               | None -> Printf.sprintf "quiet rs=%g" l.rs
               | Some p ->
                   String.concat ","
                     (List.map (fun (t, v) -> Printf.sprintf "(%g,%g)" t v) (Pwl.points p)))
             c.lines)))
    (String.concat "; "
       (List.map
          (fun (i, s) ->
            match s with
            | Engine.Max_final -> Printf.sprintf "%d max" i
            | Engine.Crossing (d, l) ->
                Printf.sprintf "%d %s %g" i (if d = Waveform.Rising then "rise" else "fall") l)
          c.stops))

(* Whether the case's stopped run ended early (after checking it). *)
let run_max_final_case c =
  let dt = 1e-12 and t_stop = 1.5e-9 in
  let mode, integration, adaptive = List.nth (stepping_modes dt) c.mode in
  let nl, far = build_lines ~n_seg:c.n_seg ~cc:c.cc c.lines in
  max_final_prefix ("random " ^ mode) nl
    ~stops:(List.map (fun (i, s) -> (far.(i), s)) c.stops)
    ~dt ~t_stop ~integration ~adaptive

let prop_max_final_prefix =
  QCheck.Test.make ~name:"max-final and crossing stops are bit-exact prefixes (random clusters)"
    ~count:60
    (QCheck.make ~print:print_max_final_case gen_max_final_case)
    (fun c ->
      ignore (run_max_final_case c : bool);
      true)

(* The property is not vacuous: on a fixed sample of its cases the bound
   fires often. *)
let test_max_final_property_fires () =
  let cases =
    QCheck.Gen.generate ~rand:(Random.State.make [| 16 |]) ~n:40 gen_max_final_case
  in
  let early = List.length (List.filter run_max_final_case cases) in
  if early < 8 then Alcotest.failf "only %d of 40 random cases stopped early" early

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rlc_circuit"
    [
      ( "linear",
        [
          Alcotest.test_case "RC step response" `Quick test_rc_step;
          Alcotest.test_case "DC divider" `Quick test_rc_divider_dc;
          Alcotest.test_case "series RLC underdamped" `Quick test_series_rlc_underdamped;
          Alcotest.test_case "BE damps vs trapezoidal" `Quick test_backward_euler_damps;
          Alcotest.test_case "current source" `Quick test_current_source_into_rc;
          Alcotest.test_case "LC ladder time of flight" `Quick test_lc_ladder_time_of_flight;
          Alcotest.test_case "PWL replay" `Quick test_pwl_replay;
          q prop_rc_charge_conservation;
        ] );
      ( "nonlinear",
        [
          Alcotest.test_case "nonlinear resistor = linear" `Quick test_nonlinear_matches_linear;
          Alcotest.test_case "diode clamp KCL" `Quick test_diode_clamp_dc;
        ] );
      ( "factor-once",
        [
          Alcotest.test_case "RC ladder fast = per-step reassembly" `Quick test_equiv_rc;
          Alcotest.test_case "RLC ladder fast = per-step reassembly" `Quick test_equiv_rlc;
          Alcotest.test_case "coupled pair fast = per-step reassembly" `Quick test_equiv_coupled;
          Alcotest.test_case "nonlinear fast = per-step reassembly" `Quick test_equiv_nonlinear;
          Alcotest.test_case "selective node recording" `Quick test_record_nodes;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "RC tracks fixed, 3x fewer steps" `Quick test_adaptive_rc;
          Alcotest.test_case "breakpoints hit exactly" `Quick test_adaptive_breakpoints_exact;
          Alcotest.test_case "underdamped RLC tracked" `Quick test_adaptive_rlc_rings;
          Alcotest.test_case "obs counters reconcile" `Quick test_adaptive_obs_reconcile;
          Alcotest.test_case "nonlinear Newton path" `Quick test_adaptive_nonlinear;
          Alcotest.test_case "parameter validation" `Quick test_adaptive_rejects_bad_params;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "RC bit-identity (trap/BE x fixed/adaptive)" `Quick
            test_compiled_rc;
          Alcotest.test_case "RLC bit-identity (trap/BE x fixed/adaptive)" `Quick
            test_compiled_rlc;
          Alcotest.test_case "coupled bit-identity (trap/BE x fixed/adaptive)" `Quick
            test_compiled_coupled;
          Alcotest.test_case "nonlinear bit-identity (trap/BE x fixed/adaptive)" `Quick
            test_compiled_nonlinear;
          Alcotest.test_case "restamp after run reuses the handle" `Quick
            test_compiled_restamp;
          Alcotest.test_case "handle cache keys on structure" `Quick
            test_compiled_cache_keying;
          Alcotest.test_case "handle cache: one handle per domain" `Quick
            test_compiled_cache_per_domain;
          Alcotest.test_case "handle cache: bounded, evicted handle recompiles exactly" `Quick
            test_compiled_cache_bounded;
          Alcotest.test_case "RLC early stop is a prefix (trap/BE x fixed/adaptive)" `Quick
            test_stop_rlc;
          Alcotest.test_case "coupled early stop is a prefix (trap/BE x fixed/adaptive)" `Quick
            test_stop_coupled;
          Alcotest.test_case "nonlinear early stop is a prefix (trap/BE x fixed/adaptive)" `Quick
            test_stop_nonlinear;
        ] );
      ( "max-final",
        [
          Alcotest.test_case "bound proves damped peaks final (trap/BE x fixed/adaptive)" `Quick
            test_max_final_fires;
          Alcotest.test_case "late maximum after a lower local peak" `Quick
            test_max_final_late_peak;
          Alcotest.test_case "never fires outside the bound's conditions" `Quick
            test_max_final_never_fires;
          q prop_max_final_prefix;
          Alcotest.test_case "random cases stop early" `Quick test_max_final_property_fires;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "floating node" `Quick test_floating_node_rejected;
          Alcotest.test_case "double force" `Quick test_double_force_rejected;
          Alcotest.test_case "invalid values" `Quick test_invalid_element_values;
          Alcotest.test_case "engine stats/options" `Quick test_engine_stats_and_options;
          Alcotest.test_case "nonlinear newton counts" `Quick test_nonlinear_newton_counts;
          Alcotest.test_case "pp summary" `Quick test_pp_summary;
          Alcotest.test_case "node names" `Quick test_node_names;
        ] );
    ]
