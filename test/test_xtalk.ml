(* Rlc_xtalk tests: the closed-form screen's limits and calibration, the
   alignment sweep's monotonicity, violation gating, and the determinism
   guarantees (byte-identical classification and reports across jobs; the
   isolated report untouched when the analysis is off). *)

module Design = Rlc_flow.Design
module Flow = Rlc_flow.Flow
module Report = Rlc_flow.Report
module Noise = Rlc_xtalk.Noise
module Xtalk = Rlc_xtalk.Xtalk
module Session = Rlc_service.Session

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* dune runtest runs from _build/default/test/ (examples one up, staged by
   the (deps ...) in test/dune); dune exec from the project root. *)
let fixture name =
  if Sys.file_exists (Filename.concat "examples" name) then Filename.concat "examples" name
  else Filename.concat "../examples" name

let coupled_spef = fixture "bus8_coupled.spef"
let bus8_spec = fixture "bus8.spec"

let design =
  lazy
    (let spef =
       match Rlc_spef.Spef.parse_res (read_file coupled_spef) with
       | Ok s -> s
       | Error e -> failwith (Rlc_errors.Error.message e)
     in
     let spec =
       match Rlc_flow.Spec.parse_res (read_file bus8_spec) with
       | Ok s -> s
       | Error e -> failwith (Rlc_errors.Error.message e)
     in
     match Design.ingest ~spef ~spec () with Ok d -> d | Error e -> failwith e)

let flow = lazy (Flow.run_cfg Flow.Config.default (Lazy.force design))

(* One shared full-grid analysis; cheap variants re-analyze with their own
   knobs. *)
let analyzed = lazy (Xtalk.analyze (Lazy.force flow))

let analyze_with ?(alignments = 1) ?(threshold = Xtalk.Config.default.Xtalk.Config.threshold)
    ?(budget = Xtalk.Config.default.Xtalk.Config.budget) ?jobs () =
  Xtalk.analyze
    ~config:
      { Xtalk.Config.default with Xtalk.Config.threshold; budget; alignments; jobs }
    (Lazy.force flow)

(* ------------------------------------------------------- closed form *)

let test_noise_limits () =
  let vdd = 1.8 and rv = 100. and cv = 400e-15 and cc = 100e-15 in
  (* Fast aggressor: charge sharing cc / (cv + cc). *)
  let fast = Noise.estimate ~vdd ~tr:1e-18 ~rv ~cv ~cc ~damping:2. in
  Alcotest.(check (float 1e-3))
    "tr -> 0 recovers charge sharing"
    (vdd *. cc /. (cv +. cc))
    fast.Noise.rc_peak;
  (* Slow aggressor: the Devgan-style bound rv * cc / tr. *)
  let tr = 10e-9 in
  let slow = Noise.estimate ~vdd ~tr ~rv ~cv ~cc ~damping:2. in
  Alcotest.(check (float 1e-4))
    "slow ramp recovers the Devgan bound"
    (vdd *. rv *. cc /. tr)
    slow.Noise.rc_peak;
  (* Overdamped victims get no amplification; underdamped at most 2x. *)
  Alcotest.(check (float 0.)) "overdamped amplification" 1. slow.Noise.amplification;
  let ringing = Noise.estimate ~vdd ~tr:50e-12 ~rv ~cv ~cc ~damping:0.05 in
  Alcotest.(check bool) "underdamped amplifies" true (ringing.Noise.amplification > 1.);
  Alcotest.(check bool) "amplification clamped" true (ringing.Noise.amplification <= 2.);
  (* The peak never exceeds the rail. *)
  let huge = Noise.estimate ~vdd ~tr:1e-15 ~rv:1e5 ~cv:1e-18 ~cc:1e-12 ~damping:0.01 in
  Alcotest.(check bool) "clamped to vdd" true (huge.Noise.v_peak <= vdd)

let test_noise_monotone_in_cc () =
  let est cc = (Noise.estimate ~vdd:1.8 ~tr:80e-12 ~rv:150. ~cv:500e-15 ~cc ~damping:1.5).Noise.v_peak in
  let prev = ref 0. in
  List.iter
    (fun cc ->
      let v = est cc in
      Alcotest.(check bool) "more coupling, more noise" true (v >= !prev);
      prev := v)
    [ 1e-15; 10e-15; 50e-15; 100e-15; 300e-15 ]

let test_noise_bad_args () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "tr must be positive" true
    (raises (fun () -> Noise.estimate ~vdd:1.8 ~tr:0. ~rv:100. ~cv:1e-15 ~cc:1e-15 ~damping:1.));
  Alcotest.(check bool) "cv must be non-negative" true
    (raises (fun () ->
         Noise.estimate ~vdd:1.8 ~tr:1e-12 ~rv:100. ~cv:(-1e-15) ~cc:1e-15 ~damping:1.))

(* ------------------------------------------------- screen vs transient *)

(* The calibration claim of Noise's doc: per simulated victim, the summed
   closed-form estimates of its surviving pairs land within a factor of 3
   of the coupled-cluster transient peak. *)
let test_screen_vs_simulation () =
  let r = Lazy.force analyzed in
  let checked = ref 0 in
  Array.iter
    (fun (v : Xtalk.victim_result) ->
      match v.Xtalk.noise_sim with
      | None -> ()
      | Some sim ->
          incr checked;
          let est_sum =
            List.fold_left
              (fun acc (p : Xtalk.pair) ->
                if p.Xtalk.screened then acc else acc +. p.Xtalk.est.Noise.v_peak)
              0. v.Xtalk.pairs
          in
          Alcotest.(check bool)
            (Printf.sprintf "victim %d: sim %.1f mV within 3x of est %.1f mV" v.Xtalk.victim
               (sim /. 1e-3) (est_sum /. 1e-3))
            true
            (sim <= 3. *. est_sum && sim >= est_sum /. 3.))
    r.Xtalk.victims;
  Alcotest.(check bool) "at least one victim simulated" true (!checked > 0)

let test_bus_screens_majority () =
  (* The coupled bus fixture is built so the weak pairs dominate: the
     screen must dismiss most of them without a transient. *)
  let r = Lazy.force analyzed in
  Alcotest.(check int) "pairs" 18 r.Xtalk.stats.Xtalk.n_pairs;
  Alcotest.(check bool) "majority screened" true
    (2 * r.Xtalk.stats.Xtalk.n_screened > r.Xtalk.stats.Xtalk.n_pairs);
  Alcotest.(check int) "screened + simulated = pairs" r.Xtalk.stats.Xtalk.n_pairs
    (r.Xtalk.stats.Xtalk.n_screened + r.Xtalk.stats.Xtalk.n_simulated)

(* --------------------------------------------------- alignment sweep *)

let test_alignment_monotone () =
  (* Grids nest (the 2n-1 grid contains every point of the n grid), so the
     worst coupled delay can only grow with the grid size. *)
  let worst r =
    Array.fold_left
      (fun acc (v : Xtalk.victim_result) ->
        match v.Xtalk.coupled_delay with Some d -> Float.max acc d | None -> acc)
      0. r.Xtalk.victims
  in
  let d1 = worst (analyze_with ~alignments:1 ()) in
  let d5 = worst (analyze_with ~alignments:5 ()) in
  let d9 = worst (Lazy.force analyzed) in
  Alcotest.(check bool) "5-point grid >= aligned starts" true (d5 >= d1);
  Alcotest.(check bool) "9-point grid >= 5-point grid" true (d9 >= d5);
  (* And the push-out is real on this fixture: coupling slows the bus. *)
  Alcotest.(check bool) "positive push-out" true (d9 > 0.)

let test_pushout_sign () =
  let r = Lazy.force analyzed in
  Array.iter
    (fun (v : Xtalk.victim_result) ->
      match (v.Xtalk.pushout, v.Xtalk.coupled_delay) with
      | Some push, Some coupled ->
          Alcotest.(check (float 1e-15))
            "pushout = coupled - isolated" (coupled -. v.Xtalk.isolated_delay) push
      | None, None -> Alcotest.(check bool) "unsimulated victims carry no delay" false v.Xtalk.simulated
      | _ -> Alcotest.fail "coupled_delay and pushout must be present together")
    r.Xtalk.victims

(* Oracle for the early-stopped alignment transients: rebuild every
   simulated victim's clusters from the flow result and run them full
   length.  The reported coupled delay must equal, bit for bit, the worst
   50 % crossing over the alignment grid of the unstopped runs, and the
   noise peak must equal a full-window run's.  A traced analysis must
   also show every alignment transient and every noise transient stopping
   early. *)
let test_stopped_sweep_matches_full () =
  let module Cluster = Rlc_xtalk.Cluster in
  let module Driver_model = Rlc_ceff.Driver_model in
  let module Measure = Rlc_waveform.Measure in
  let module Pwl = Rlc_waveform.Pwl in
  let module Waveform = Rlc_waveform.Waveform in
  let module Obs = Rlc_obs.Obs in
  let fl = Lazy.force flow in
  let d = fl.Flow.design in
  let r = Lazy.force analyzed in
  let cfg = Xtalk.Config.default in
  let vdd = r.Xtalk.vdd in
  let solve id = fl.Flow.results.(id).Flow.solve in
  let model id = (solve id).Flow.model in
  let member ?drive id =
    let net = d.Design.nets.(id) in
    { Cluster.line = net.Design.eq_line; drive; rs = (model id).Driver_model.rs; cl = net.Design.cl }
  in
  let sim victim aggressors =
    Cluster.simulate ~n_segments:cfg.Xtalk.Config.n_segments ~dt:cfg.Xtalk.Config.dt ~victim
      ~aggressors ()
  in
  let bits = Int64.bits_of_float in
  let checked = ref 0 in
  Array.iter
    (fun (v : Xtalk.victim_result) ->
      if v.Xtalk.simulated then begin
        incr checked;
        let id = v.Xtalk.victim in
        let survivors = List.filter (fun (p : Xtalk.pair) -> not p.Xtalk.screened) v.Xtalk.pairs in
        let noise =
          Waveform.v_max
            (sim (member id)
               (List.map
                  (fun (p : Xtalk.pair) ->
                    (member ~drive:(model p.Xtalk.aggressor).Driver_model.pwl p.Xtalk.aggressor, p.Xtalk.cc))
                  survivors))
        in
        let span =
          List.fold_left
            (fun acc (p : Xtalk.pair) ->
              Float.max acc (Driver_model.transition_end (model p.Xtalk.aggressor)))
            ((solve id).Flow.stage_delay +. (solve id).Flow.far_slew)
            survivors
        in
        let worst =
          Array.fold_left
            (fun acc off ->
              let falling =
                List.map
                  (fun (p : Xtalk.pair) ->
                    let m = model p.Xtalk.aggressor in
                    ( member
                        ~drive:
                          (Pwl.shift_time off
                             (Pwl.falling ~vdd:m.Driver_model.vdd m.Driver_model.pwl))
                        p.Xtalk.aggressor,
                      p.Xtalk.cc ))
                  survivors
              in
              let far = sim (member ~drive:(model id).Driver_model.pwl id) falling in
              Float.max acc (Measure.t_frac_exn far ~vdd ~edge:Measure.Rising ~frac:0.5))
            Float.neg_infinity
            (Xtalk.offsets ~span cfg.Xtalk.Config.alignments)
        in
        let name = d.Design.nets.(id).Design.name in
        (match v.Xtalk.coupled_delay with
        | Some c when bits c = bits worst -> ()
        | c ->
            Alcotest.failf "%s: coupled delay %s vs full-length sweep %.17g" name
              (Option.fold ~none:"none" ~some:(Printf.sprintf "%.17g") c)
              worst);
        match v.Xtalk.noise_sim with
        | Some n when bits n = bits noise -> ()
        | _ -> Alcotest.failf "%s: noise peak differs from a full-window run" name
      end)
    r.Xtalk.victims;
  Alcotest.(check bool) "victims simulated" true (!checked > 0);
  let obs = Obs.create () in
  let traced = Xtalk.analyze ~config:{ cfg with Xtalk.Config.obs } fl in
  Alcotest.(check string) "traced fragment unchanged" (Xtalk.json_fragment d r)
    (Xtalk.json_fragment d traced);
  let m = Obs.snapshot obs in
  let noise_runs =
    Array.fold_left (fun acc (v : Xtalk.victim_result) -> if v.Xtalk.simulated then acc + 1 else acc) 0
      traced.Xtalk.victims
  in
  Alcotest.(check int) "every alignment and noise transient stops early"
    (traced.Xtalk.stats.Xtalk.n_alignment_sims + noise_runs)
    (Obs.counter m "engine.early_stops")

(* ------------------------------------------------------------ gating *)

let test_violation_budget () =
  (* A generous budget passes; a tiny one flags every simulated victim. *)
  let ok = analyze_with ~budget:1.0 () in
  Alcotest.(check int) "generous budget: no violations" 0 ok.Xtalk.stats.Xtalk.n_violations;
  let strict = analyze_with ~budget:0.01 () in
  Alcotest.(check int) "tiny budget: every simulated victim violates"
    (Array.to_list strict.Xtalk.victims
    |> List.filter (fun (v : Xtalk.victim_result) -> v.Xtalk.simulated)
    |> List.length)
    strict.Xtalk.stats.Xtalk.n_violations;
  Array.iter
    (fun (v : Xtalk.victim_result) ->
      Alcotest.(check bool) "violation iff simulated under the tiny budget" v.Xtalk.simulated
        v.Xtalk.violation)
    strict.Xtalk.victims

let test_threshold_extremes () =
  (* Threshold above every estimate: nothing simulated, nothing violated. *)
  let all_screened = analyze_with ~threshold:1.0 () in
  Alcotest.(check int) "everything screened" all_screened.Xtalk.stats.Xtalk.n_pairs
    all_screened.Xtalk.stats.Xtalk.n_screened;
  Alcotest.(check int) "no sims" 0 all_screened.Xtalk.stats.Xtalk.n_simulated;
  Alcotest.(check int) "no violations" 0 all_screened.Xtalk.stats.Xtalk.n_violations

(* ------------------------------------------------------- determinism *)

let test_deterministic_across_jobs () =
  let d = Lazy.force design in
  let f1 = Xtalk.json_fragment d (analyze_with ~alignments:3 ~jobs:1 ()) in
  let f4 = Xtalk.json_fragment d (analyze_with ~alignments:3 ~jobs:4 ()) in
  Alcotest.(check string) "fragment byte-identical across jobs" f1 f4

let test_screen_classification_deterministic () =
  let screened r =
    Array.to_list r.Xtalk.victims
    |> List.concat_map (fun (v : Xtalk.victim_result) ->
           List.map (fun (p : Xtalk.pair) -> (p.Xtalk.victim, p.Xtalk.aggressor, p.Xtalk.screened)) v.Xtalk.pairs)
  in
  let a = screened (analyze_with ~jobs:1 ()) in
  let b = screened (analyze_with ~jobs:4 ()) in
  Alcotest.(check bool) "classification identical across jobs" true (a = b)

let test_full_report_identical_across_jobs () =
  (* The whole CLI/daemon payload — flow report plus embedded fragment —
     through the same Session path the binaries use. *)
  let report jobs =
    let config = { Session.Config.default with Session.Config.jobs } in
    Session.with_session ~config (fun session ->
        let design =
          match
            Session.ingest session ~spef:(read_file coupled_spef) ~spec:(read_file bus8_spec) ()
          with
          | Ok d -> d
          | Error e -> failwith (Rlc_errors.Error.message e)
        in
        let request =
          {
            Session.Request.default with
            Session.Request.xtalk = Some { Session.default_xtalk with Session.alignments = 3 };
          }
        in
        match Session.flow session request design with
        | Ok o -> o.Session.report
        | Error e -> failwith (Rlc_errors.Error.message e))
  in
  let r1 = report 1 and r4 = report 4 in
  Alcotest.(check string) "report byte-identical across jobs" r1 r4;
  Alcotest.(check bool) "fragment embedded" true
    (let contains hay needle =
       let nh = String.length hay and nn = String.length needle in
       let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
       go 0
     in
     contains r1 "\"xtalk\"")

let test_off_mode_report_untouched () =
  (* Without ?xtalk the Session report is exactly the isolated flow's
     report: ingesting coupling caps must not perturb it. *)
  Session.with_session (fun session ->
      let design =
        match
          Session.ingest session ~spef:(read_file coupled_spef) ~spec:(read_file bus8_spec) ()
        with
        | Ok d -> d
        | Error e -> failwith (Rlc_errors.Error.message e)
      in
      match Session.flow session Session.Request.default design with
      | Error e -> failwith (Rlc_errors.Error.message e)
      | Ok o ->
          Alcotest.(check string) "no-xtalk report = plain flow report"
            (Report.json_string o.Session.result)
            o.Session.report;
          Alcotest.(check bool) "no xtalk result attached" true (o.Session.xtalk = None))

(* ------------------------------------------------------ noise oracle *)

(* A seeded coupled bus in the shape of examples/bus8_coupled.spef: bus
   bits of 4 RLC segments, each feeding an RC local net; adjacent pairs
   (b0-b1, b2-b3, ...) strongly coupled, the bits between them and the
   next-nearest bits weakly.  Values are drawn per net. *)
let generated_coupled_bus ~bits ~seed =
  let rng = Random.State.make [| seed |] in
  let u lo hi = lo +. Random.State.float rng (hi -. lo) in
  let spef = Buffer.create 4096 and spec = Buffer.create 1024 in
  Buffer.add_string spef
    "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"gen_coupled\"\n*T_UNIT 1 PS\n*C_UNIT 1 FF\n\
     *R_UNIT 1 OHM\n*L_UNIT 1 PH\n";
  let bus_nodes i = List.map (Printf.sprintf "b%d_%s" i) [ "1"; "2"; "3"; "rcv" ] in
  for i = 0 to bits - 1 do
    let nodes = bus_nodes i in
    let couplings =
      (if i < bits - 1 then
         let strong = i mod 2 = 0 in
         List.map2
           (fun a b -> (a, b, if strong then u 30. 45. else u 0.5 2.))
           nodes (bus_nodes (i + 1))
       else [])
      @
      if i < bits - 2 then [ (List.nth nodes 1, List.nth (bus_nodes (i + 2)) 1, u 1. 4.) ]
      else []
    in
    let p fmt = Printf.bprintf spef fmt in
    p "*D_NET b%d 800\n*CONN\n*P b%d_drv O\n*P b%d_rcv I\n*CAP\n" i i i;
    List.iteri (fun k n -> p "%d %s %.1f\n" (k + 1) n (u 120. 200.)) nodes;
    List.iteri (fun k (a, b, c) -> p "%d %s %s %.1f\n" (k + 5) a b c) couplings;
    let chain f =
      ignore
        (List.fold_left
           (fun (k, prev) n ->
             p "%d %s %s %.0f\n" k prev n (f ());
             (k + 1, n))
           (1, Printf.sprintf "b%d_drv" i)
           nodes)
    in
    p "*RES\n";
    chain (fun () -> u 14. 24.);
    p "*INDUC\n";
    chain (fun () -> u 900. 1300.);
    p "*END\n";
    p "*D_NET o%d 90\n*CONN\n*P o%d_drv O\n*P o%d_rcv I\n*CAP\n1 o%d_1 %.1f\n2 o%d_rcv %.1f\n"
      i i i i (u 30. 60.) i (u 30. 60.);
    if i < bits - 1 then p "3 o%d_1 o%d_1 %.1f\n" i (i + 1) (u 1. 3.);
    p "*RES\n1 o%d_drv o%d_1 %.1f\n2 o%d_1 o%d_rcv %.1f\n*END\n" i i (u 40. 80.) i i
      (u 40. 80.);
    Printf.bprintf spec
      "driver b%d %d\ninput b%d %d\ndriver o%d 50\nedge b%d b%d_rcv o%d\nload o%d o%d_rcv 5\n"
      i (if Random.State.bool rng then 75 else 50) i
      (60 + Random.State.int rng 80)
      i i i i i i
  done;
  let spef =
    match Rlc_spef.Spef.parse_res (Buffer.contents spef) with
    | Ok s -> s
    | Error e -> failwith (Rlc_errors.Error.message e)
  in
  let spec =
    match Rlc_flow.Spec.parse_res (Buffer.contents spec) with
    | Ok s -> s
    | Error e -> failwith (Rlc_errors.Error.message e)
  in
  match Design.ingest ~spef ~spec () with Ok d -> d | Error e -> failwith e

(* Oracle for the early-stopped noise transients: rebuild every simulated
   victim's noise cluster from the flow result and run it whole and with
   the max-final stop.  The reported noise peak must equal both runs'
   maximum bit for bit, and the stopped run must take fewer steps and
   count one early stop. *)
let check_noise_oracle name (fl : Flow.result) (r : Xtalk.result) =
  let module Cluster = Rlc_xtalk.Cluster in
  let module Driver_model = Rlc_ceff.Driver_model in
  let module Waveform = Rlc_waveform.Waveform in
  let module Obs = Rlc_obs.Obs in
  let d = fl.Flow.design in
  let cfg = Xtalk.Config.default in
  let model id = fl.Flow.results.(id).Flow.solve.Flow.model in
  let member ?drive id =
    let net = d.Design.nets.(id) in
    { Cluster.line = net.Design.eq_line; drive; rs = (model id).Driver_model.rs; cl = net.Design.cl }
  in
  let bits = Int64.bits_of_float in
  let checked = ref 0 in
  Array.iter
    (fun (v : Xtalk.victim_result) ->
      if v.Xtalk.simulated then begin
        incr checked;
        let id = v.Xtalk.victim in
        let net = d.Design.nets.(id).Design.name in
        let aggressors =
          List.filter_map
            (fun (p : Xtalk.pair) ->
              if p.Xtalk.screened then None
              else
                Some
                  ( member ~drive:(model p.Xtalk.aggressor).Driver_model.pwl p.Xtalk.aggressor,
                    p.Xtalk.cc ))
            v.Xtalk.pairs
        in
        let sim ?stop_after () =
          let obs = Obs.create () in
          let far =
            Cluster.simulate ~obs ?stop_after ~n_segments:cfg.Xtalk.Config.n_segments
              ~dt:cfg.Xtalk.Config.dt ~victim:(member id) ~aggressors ()
          in
          let m = Obs.snapshot obs in
          (Waveform.v_max far, Obs.counter m "engine.steps", Obs.counter m "engine.early_stops")
        in
        let full, full_steps, full_stops = sim () in
        let peak, steps, stops = sim ~stop_after:[ Rlc_circuit.Engine.Max_final ] () in
        (match v.Xtalk.noise_sim with
        | Some n when bits n = bits full && bits n = bits peak -> ()
        | _ -> Alcotest.failf "%s/%s: noise peak differs from the full-window run" name net);
        if steps >= full_steps then
          Alcotest.failf "%s/%s: noise run did not stop early (%d of %d steps)" name net steps
            full_steps;
        Alcotest.(check (pair int int))
          (name ^ "/" ^ net ^ ": early stops") (0, 1) (full_stops, stops)
      end)
    r.Xtalk.victims;
  if !checked = 0 then Alcotest.failf "%s: no victim simulated" name

let test_noise_oracle () =
  check_noise_oracle "bus8_coupled" (Lazy.force flow) (Lazy.force analyzed);
  let fl = Flow.run_cfg Flow.Config.default (generated_coupled_bus ~bits:6 ~seed:16) in
  check_noise_oracle "generated"
    fl
    (Xtalk.analyze ~config:{ Xtalk.Config.default with Xtalk.Config.alignments = 1 } fl)

(* Non-finite or negative screen/budget levels are rejected up front: NaN
   fails every comparison, so it would simulate every pair or never flag a
   violation. *)
let test_non_finite_levels () =
  List.iter
    (fun (what, threshold, budget) ->
      match analyze_with ~threshold ~budget () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s accepted" what)
    [
      ("threshold nan", Float.nan, 0.25);
      ("threshold inf", Float.infinity, 0.25);
      ("threshold -inf", Float.neg_infinity, 0.25);
      ("budget nan", 0.05, Float.nan);
      ("budget inf", 0.05, Float.infinity);
      ("budget -inf", 0.05, Float.neg_infinity);
      ("negative threshold", -0.01, 0.25);
    ]

(* -------------------------------------------------------------- misc *)

let test_protocol_xtalk_request () =
  let parse line = Rlc_service.Protocol.parse_request line in
  (match
     parse
       {|{"schema":"rlc-service/1","kind":"xtalk","spef":"x","threshold":0.1,"alignments":5}|}
   with
  | Ok { Rlc_service.Protocol.kind = Rlc_service.Protocol.Xtalk (_, x); _ } ->
      Alcotest.(check (option (float 0.))) "threshold" (Some 0.1) x.Rlc_service.Protocol.x_threshold;
      Alcotest.(check (option int)) "alignments" (Some 5) x.Rlc_service.Protocol.x_alignments;
      Alcotest.(check (option (float 0.))) "budget defaults open" None x.Rlc_service.Protocol.x_budget
  | Ok _ -> Alcotest.fail "parsed to the wrong kind"
  | Error e -> Alcotest.fail (Rlc_errors.Error.message e));
  match
    parse {|{"schema":"rlc-service/1","kind":"xtalk","spef":"x","alignments":0}|}
  with
  | Ok _ -> Alcotest.fail "alignments 0 accepted"
  | Error _ -> ()

let () =
  Alcotest.run "xtalk"
    [
      ( "noise",
        [
          Alcotest.test_case "limits" `Quick test_noise_limits;
          Alcotest.test_case "monotone in cc" `Quick test_noise_monotone_in_cc;
          Alcotest.test_case "bad arguments" `Quick test_noise_bad_args;
        ] );
      ( "screen",
        [
          Alcotest.test_case "calibrated vs transient" `Slow test_screen_vs_simulation;
          Alcotest.test_case "majority screened" `Slow test_bus_screens_majority;
          Alcotest.test_case "threshold extremes" `Quick test_threshold_extremes;
          Alcotest.test_case "non-finite levels rejected" `Quick test_non_finite_levels;
        ] );
      ( "timing",
        [
          Alcotest.test_case "alignment monotone" `Slow test_alignment_monotone;
          Alcotest.test_case "push-out sign" `Slow test_pushout_sign;
          Alcotest.test_case "stopped sweep = full-length oracle" `Slow
            test_stopped_sweep_matches_full;
        ] );
      ( "gating", [ Alcotest.test_case "budget" `Slow test_violation_budget ] );
      ( "noise oracle",
        [
          Alcotest.test_case "stopped noise runs = full-window peaks (bus8_coupled, generated)"
            `Slow test_noise_oracle;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fragment across jobs" `Slow test_deterministic_across_jobs;
          Alcotest.test_case "classification across jobs" `Slow
            test_screen_classification_deterministic;
          Alcotest.test_case "full report across jobs" `Slow test_full_report_identical_across_jobs;
          Alcotest.test_case "off mode untouched" `Slow test_off_mode_report_untouched;
        ] );
      ( "protocol", [ Alcotest.test_case "xtalk request" `Quick test_protocol_xtalk_request ] );
    ]
