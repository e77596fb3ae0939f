(* In-process side of the benchmark: runs the cold_flow, fig7_sweep and
   xtalk_flow workloads against the library's public entry points, and
   replays recorded daemon traffic through the protocol, ingest and report
   layers for eco_serve's per-layer ledger.

   It never generates inputs: designs arrive as SPEF/spec files written by
   run.py, and the Figure-7 grid is the paper's.  Each op is wrapped in a
   "bench.op" span and each call into a layer in a span named after that
   layer, on the same sink the library records into, so the traced run's
   Chrome trace carries both and run.py can derive every layer's self time.

     worker.exe WORKLOAD --out FILE [--inputs DIR] [--seconds S | --ops N]
                [--trace FILE] [--jobs N] [--setups K] [--seed N] [--corrupt]

   The result is one JSON object written to FILE. *)

module Obs = Rlc_obs.Obs
module Json = Rlc_service.Json
module Flow = Rlc_flow.Flow
module Design = Rlc_flow.Design
module Spec = Rlc_flow.Spec
module Report = Rlc_flow.Report
module Spef = Rlc_spef.Spef
module Characterize = Rlc_liberty.Characterize
module Pool = Rlc_parallel.Pool
module Xtalk = Rlc_xtalk.Xtalk
module Evaluate = Rlc_ceff.Evaluate
module Driver_model = Rlc_ceff.Driver_model
module Reference = Rlc_ceff.Reference
module Protocol = Rlc_service.Protocol

type args = {
  workload : string;
  out : string;
  inputs : string;
  seconds : float;
  ops : int;  (** fixed op count; 0 runs for [seconds] instead *)
  trace : string option;  (** Chrome trace destination; enables the sink *)
  jobs : int;
  setups : int;
  seed : int;
  corrupt : bool;  (** self-test: damage one checked output *)
}

let parse_args () =
  let a =
    ref
      {
        workload = "";
        out = "";
        inputs = "";
        seconds = 1.;
        ops = 0;
        trace = None;
        jobs = 2;
        setups = 3;
        seed = 1;
        corrupt = false;
      }
  in
  let rec go = function
    | [] -> ()
    | "--out" :: v :: tl -> a := { !a with out = v }; go tl
    | "--inputs" :: v :: tl -> a := { !a with inputs = v }; go tl
    | "--seconds" :: v :: tl -> a := { !a with seconds = float_of_string v }; go tl
    | "--ops" :: v :: tl -> a := { !a with ops = int_of_string v }; go tl
    | "--trace" :: v :: tl -> a := { !a with trace = Some v }; go tl
    | "--jobs" :: v :: tl -> a := { !a with jobs = int_of_string v }; go tl
    | "--setups" :: v :: tl -> a := { !a with setups = int_of_string v }; go tl
    | "--seed" :: v :: tl -> a := { !a with seed = int_of_string v }; go tl
    | "--corrupt" :: tl -> a := { !a with corrupt = true }; go tl
    | w :: tl when !a.workload = "" -> a := { !a with workload = w }; go tl
    | x :: _ -> failwith ("worker: unexpected argument " ^ x)
  in
  go (List.tl (Array.to_list Sys.argv));
  if !a.workload = "" || !a.out = "" then failwith "usage: worker.exe WORKLOAD --out FILE ...";
  (* The load generator never runs more domains than the machine has. *)
  if !a.jobs > Domain.recommended_domain_count () then failwith "worker: --jobs exceeds nproc";
  !a

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
let now = Unix.gettimeofday

let ok_exn what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Rlc_errors.Error.message e)

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_kb () =
  match
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Option.some
          | Some _ -> scan ()
        in
        scan ())
  with
  | Some kb -> kb
  | None | (exception Sys_error _) -> 0

(* ------------------------------------------------------------ results *)

type outcome = {
  setup_s : float list;
  lat_ms : float list;  (** per op, completion order *)
  wall_s : float;  (** timed phase *)
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** output checks, outside the timed phase *)
  counts : (string * int) list;  (** bench-side work counts over the timed phase *)
  extra : (string * Json.t) list;
}

(* Counters and histogram sums recorded while the timed phase ran: the
   sink's totals after it minus those before it, so setup and the output
   checks stay out of the ledger.  The phase itself is a "bench.timed"
   span, the window run.py keeps trace spans from. *)
let phase_counters = ref [] and phase_stat_sums = ref []

let timed obs f =
  let before = Obs.snapshot_light obs in
  let v = Obs.time obs "bench.timed" f in
  let after = Obs.snapshot_light obs in
  let minus l0 l1 sub =
    List.map
      (fun (k, v) -> (k, match List.assoc_opt k l0 with Some v0 -> sub v v0 | None -> v))
      l1
  in
  phase_counters := minus before.Obs.m_counters after.Obs.m_counters ( - );
  let sums l = List.map (fun (k, (s : Obs.stat_summary)) -> (k, s.Obs.sum)) l in
  phase_stat_sums := minus (sums before.Obs.m_stats) (sums after.Obs.m_stats) ( -. );
  v

let time_setups args f =
  List.init (max 1 args.setups) (fun _ ->
      let t0 = now () in
      let v = f () in
      (now () -. t0, v))

(* Closed loop over [n_inputs] inputs in order (cycling), on the calling
   domain: for [args.ops] ops, or until [args.seconds] have passed. *)
let closed_loop args obs ~n_inputs op =
  let lat = ref [] and n = ref 0 and failed = ref 0 in
  timed obs @@ fun () ->
  let t_start = now () in
  let deadline = t_start +. args.seconds in
  let continue () = if args.ops > 0 then !n < args.ops else now () < deadline in
  while continue () do
    let i = !n mod n_inputs in
    let t0 = now () in
    (match Obs.time obs "bench.op" (fun () -> op i) with
    | () -> ()
    | exception e ->
        Printf.eprintf "worker: op %d failed: %s\n%!" !n (Printexc.to_string e);
        incr failed);
    lat := ((now () -. t0) *. 1e3) :: !lat;
    incr n
  done;
  (List.rev !lat, now () -. t_start, !n, !failed)

(* ----------------------------------------------------------- designs *)

type source = { name : string; spef_src : string; spec_src : string }

let load_sources dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".spef")
  |> List.sort compare
  |> List.map (fun f ->
         let stem = Filename.chop_suffix f ".spef" in
         {
           name = stem;
           spef_src = read_file (Filename.concat dir f);
           spec_src = read_file (Filename.concat dir (stem ^ ".spec"));
         })
  |> Array.of_list

let ingest obs src =
  let spef = Obs.time obs "ingest.spef" (fun () -> ok_exn "spef" (Spef.parse_res src.spef_src)) in
  let spec = Obs.time obs "ingest.spec" (fun () -> ok_exn "spec" (Spec.parse_res src.spec_src)) in
  Obs.time obs "ingest.design" (fun () ->
      match Design.ingest ~spef ~spec () with Ok d -> d | Error e -> failwith e)

let warm obs sizes =
  List.iter
    (fun size ->
      Obs.time obs "characterize" (fun () ->
          ignore (ok_exn "characterize" (Characterize.cell_res Rlc_devices.Tech.c018 ~size))))
    sizes

let distinct_sizes sources =
  Array.to_list sources
  |> List.concat_map (fun s ->
         (ok_exn "spec" (Spec.parse_res s.spec_src)).Spec.drivers |> List.map snd)
  |> List.sort_uniq compare

let corrupt s =
  if s = "" then "x"
  else
    String.mapi
      (fun i c -> if i = String.length s / 2 then Char.chr (Char.code c lxor 1) else c)
      s

(* What one timed design produced: the flow result, the crosstalk result
   when the workload runs it, the output the jobs check compares, and the
   full JSON report. *)
type timed_design = {
  result : Flow.result;
  xtalk : Xtalk.result option;
  checked : string;
  report : string;
}

(* The shared closed loop of cold_flow and xtalk_flow: time [run] on every
   design in turn, then re-run the last two designs at [jobs = 1] outside
   the timed phase ([~timed:false]) and require byte-identical output. *)
let design_workload args obs ~setup ~check_name run =
  let sources = load_sources args.inputs in
  let setup_s = List.map fst (time_setups args (fun () -> setup sources)) in
  let counts = Hashtbl.create 16 in
  let bump k v =
    Hashtbl.replace counts k (v + Option.value ~default:0 (Hashtbl.find_opt counts k))
  in
  let last = ref [] in
  let h0, m0, s0 = Characterize.stats () in
  let lat, wall, n, failed =
    closed_loop args obs ~n_inputs:(Array.length sources) (fun i ->
        let src = sources.(i) in
        let t = run ~timed:true ~jobs:args.jobs obs src in
        let st = t.result.Flow.stats in
        bump "cache.hits" st.Flow.cache_hits;
        bump "cache.misses" st.Flow.cache_misses;
        bump "ingest.nets" st.Flow.n_nets;
        bump "ingest.bytes" (String.length src.spef_src + String.length src.spec_src);
        bump "report.bytes" (String.length t.report);
        Option.iter
          (fun (x : Xtalk.result) ->
            let st = x.Xtalk.stats in
            bump "xtalk.pairs" st.Xtalk.n_pairs;
            bump "xtalk.screened" st.Xtalk.n_screened;
            bump "xtalk.alignment_sims" st.Xtalk.n_alignment_sims;
            bump "xtalk.victims_simulated"
              (Array.fold_left
                 (fun a (v : Xtalk.victim_result) -> if v.Xtalk.simulated then a + 1 else a)
                 0 x.Xtalk.victims))
          t.xtalk;
        last := (i, t.checked) :: List.filteri (fun k _ -> k = 0) !last)
  in
  let h, m, s = Characterize.stats () in
  bump "characterize.hits" (h - h0);
  bump "characterize.misses" (m - m0);
  bump "characterize.stores" (s - s0);
  let sampled =
    List.mapi (fun k (i, out) -> (i, if args.corrupt && k = 0 then corrupt out else out)) !last
  in
  let checks =
    List.map
      (fun (i, out) ->
        let again = (run ~timed:false ~jobs:1 Obs.null sources.(i)).checked in
        (Printf.sprintf "%s:%s" check_name sources.(i).name, again = out))
      sampled
  in
  let counts = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [] |> List.sort compare in
  { setup_s; lat_ms = lat; wall_s = wall; attempted = n; failed; checks; counts; extra = [] }

(* One design timed exactly as a fresh [rlc_timing flow --adaptive] process
   times it: empty characterization store, fresh Ceff cache, fresh pool,
   parse -> ingest -> time -> JSON report.  Checked: the report. *)
let cold_flow args obs =
  let adaptive = Rlc_circuit.Engine.default_adaptive () in
  design_workload args obs ~check_name:"report_jobs_identical"
    ~setup:(fun _ -> ignore (load_sources args.inputs))
    (fun ~timed ~jobs obs src ->
      if timed then Characterize.clear_cache ();
      let design = ingest obs src in
      let cfg =
        { Flow.Config.default with Flow.Config.jobs = Some jobs; adaptive = Some adaptive; obs }
      in
      let result = Flow.run_cfg cfg design in
      let report = Obs.time obs "report.json" (fun () -> Report.json_string result) in
      { result; xtalk = None; checked = report; report })

(* One coupled design through [flow --xtalk] with characterization warmed
   in setup: flow plus [Xtalk.analyze] at the defaults, both on one pool
   per op.  Checked: the xtalk fragment. *)
let xtalk_flow args obs =
  design_workload args obs ~check_name:"xtalk_jobs_identical"
    ~setup:(fun sources ->
      Characterize.clear_cache ();
      warm obs (distinct_sizes sources))
    (fun ~timed:_ ~jobs obs src ->
      let design = ingest obs src in
      Pool.with_pool ~obs ~jobs (fun pool ->
          let cfg = { Flow.Config.default with Flow.Config.pool = Some pool; obs } in
          let result = Flow.run_cfg cfg design in
          let config = { Xtalk.Config.default with Xtalk.Config.pool = Some pool; obs } in
          let x = Xtalk.analyze ~config result in
          let frag = Obs.time obs "report.xtalk" (fun () -> Xtalk.json_fragment design x) in
          let report =
            Obs.time obs "report.json" (fun () -> Report.json_string ~xtalk:frag result)
          in
          { result; xtalk = Some x; checked = frag; report }))

(* --------------------------------------------------------- fig7_sweep *)

let ps x = x *. 1e12
let abs_pct_error ~actual ~model = Float.abs (Rlc_waveform.Measure.pct_error ~actual ~model)

(* The paper's Figure-7 grid at the fixed-step golden settings.  Setup
   screens all 980 cases; the timed phase runs the inductive survivors in
   a seeded order on a pool of [jobs] domains, each domain a closed loop,
   one op = screen, the Eq. 8 two-ramp model, then the transistor-level
   reference.  Every case's numbers go back to run.py, which checks them
   against the committed scatter rows. *)
let fig7_sweep args obs =
  let tech = Rlc_devices.Tech.c018 in
  let dt = 0.5e-12 in
  let cell obs (c : Evaluate.case) =
    Obs.time obs "characterize" (fun () ->
        ok_exn "characterize" (Characterize.cell_res tech ~size:c.Evaluate.size))
  in
  let model ?mode obs (c : Evaluate.case) =
    Driver_model.model ~obs ?mode ~cell:(cell obs c) ~edge:Rlc_waveform.Measure.Rising
      ~input_slew:c.Evaluate.input_slew ~line:c.Evaluate.line ~cl:c.Evaluate.cl ()
  in
  let setups =
    time_setups args (fun () ->
        Characterize.clear_cache ();
        let cases = Array.of_list (Rlc_ceff.Experiments.sweep_cases ()) in
        warm obs
          (Array.to_list cases |> List.map (fun c -> c.Evaluate.size) |> List.sort_uniq compare);
        Pool.with_pool ~obs ~jobs:args.jobs (fun pool ->
            let keep =
              Pool.map pool (Array.length cases) (fun i ->
                  match model Obs.null cases.(i) with
                  | m -> m.Driver_model.screen.Rlc_ceff.Screen.significant
                  | exception _ -> false)
            in
            (Array.length cases, List.filteri (fun i _ -> keep.(i)) (Array.to_list cases))))
  in
  let n_grid, inductive = snd (List.hd setups) in
  (* The timed phase is a fresh sweep over the survivors: each driver size
     is characterized again on first use, inside the op that needs it. *)
  Characterize.clear_cache ();
  (* The fixed accuracy subset (every 4th survivor in grid order) runs
     first, then the rest, each part in a seeded order. *)
  let rng = Random.State.make [| args.seed |] in
  let shuffle l =
    let a = Array.of_list l in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    Array.to_list a
  in
  let probe, rest = List.partition snd (List.mapi (fun i c -> (c, i mod 4 = 0)) inductive) in
  let order = Array.of_list (shuffle probe @ shuffle rest) in
  let n_cases = Array.length order in
  let total = if args.ops > 0 then args.ops else 8 * n_cases in
  let h0, m0, s0 = Characterize.stats () in
  let t_start = now () in
  let deadline = t_start +. args.seconds in
  let rows =
    Pool.with_pool ~obs ~jobs:args.jobs @@ fun pool ->
    timed obs (fun () ->
        Pool.map pool total (fun k ->
            if (args.ops = 0 && now () >= deadline) || k >= total then None
            else begin
              let c, in_probe = order.(k mod n_cases) in
              let t0 = now () in
              let row =
                Obs.time obs "bench.op" (fun () ->
                    let m = Obs.time obs "model.screen" (fun () -> model obs c) in
                    let two =
                      Obs.time obs "model.two_ramp" (fun () ->
                          model ~mode:Driver_model.Force_two_ramp obs c)
                    in
                    let r =
                      Obs.time obs "reference.simulate" (fun () ->
                          Reference.simulate ~obs ~dt ~tech ~size:c.Evaluate.size
                            ~input_slew:c.Evaluate.input_slew ~line:c.Evaluate.line
                            ~cl:c.Evaluate.cl ())
                    in
                    ( m.Driver_model.screen.Rlc_ceff.Screen.significant,
                      Reference.near_delay r,
                      Driver_model.model_delay two,
                      Reference.near_slew r,
                      Driver_model.model_slew_10_90 two ))
              in
              Some ((now () -. t0) *. 1e3, now (), c, in_probe, row)
            end))
  in
  let rows = Array.to_list rows |> List.filter_map Fun.id in
  let wall =
    List.fold_left (fun acc (_, t_end, _, _, _) -> Float.max acc (t_end -. t_start)) 0. rows
  in
  let rows = List.sort (fun (_, a, _, _, _) (_, b, _, _, _) -> compare a b) rows in
  let case_json i (_, _, (c : Evaluate.case), in_probe, (significant, rd, md, rs, ms)) =
    let rd, md, rs, ms = (ps rd, ps md, ps rs, ps ms) in
    let rd, md, rs, ms =
      if args.corrupt && i = 0 then (rd +. 1., md, rs, ms) else (rd, md, rs, ms)
    in
    Json.Obj
      [
        ("label", Json.Str c.Evaluate.label);
        ("probe", Json.Bool in_probe);
        ("inductive", Json.Bool significant);
        ("row", Json.Str (Printf.sprintf "%8.2f %8.2f %8.1f %8.1f" rd md rs ms));
        ("delay_err_pct", Json.Float (abs_pct_error ~actual:rd ~model:md));
        ("slew_err_pct", Json.Float (abs_pct_error ~actual:rs ~model:ms));
      ]
  in
  {
    setup_s = List.map fst setups;
    lat_ms = List.map (fun (l, _, _, _, _) -> l) rows;
    wall_s = wall;
    attempted = List.length rows;
    failed = 0;
    checks = [];
    counts =
      (let h, m, s = Characterize.stats () in
       [
         ("characterize.hits", h - h0);
         ("characterize.misses", m - m0);
         ("characterize.stores", s - s0);
         ("sweep.grid", n_grid);
         ("sweep.inductive", List.length inductive);
       ]);
    extra = [ ("cases", Json.List (List.mapi case_json rows)) ];
  }

(* ------------------------------------------------------------- replay *)

(* eco_serve's protocol, ingest and report layers run inside the daemon's
   uninstrumented request path, so the benchmark times them from outside on
   a sample of the recorded traffic: request lines go back through
   [Protocol.parse_request], read requests' inline sources through parse +
   [Design.ingest] + a warm flow + [Report.json_string], and responses
   through the [Json] codec the daemon encodes with. *)
let replay args obs =
  let lines name =
    read_file (Filename.concat args.inputs name)
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  let requests = lines "requests.ndjson" and responses = lines "responses.ndjson" in
  let reads = lines "reads.ndjson" in
  let sum_time name f xs = List.iter (fun x -> ignore (Obs.time obs name (fun () -> f x))) xs in
  let t0 = now () in
  timed obs @@ fun () ->
  sum_time "protocol.decode" (fun l -> ignore (Protocol.parse_request l)) requests;
  sum_time "protocol.encode"
    (fun l -> match Json.parse l with Ok j -> ignore (Json.to_string j) | Error _ -> ())
    responses;
  let cache = Flow.create_cache () in
  List.iter
    (fun l ->
      match Protocol.parse_request l with
      | Ok { Protocol.kind = Protocol.Flow f; _ } ->
          let text = function Protocol.Inline s -> s | Protocol.File p -> read_file p in
          let src =
            {
              name = "read";
              spef_src = text f.Protocol.f_spef;
              spec_src = Option.fold ~none:"" ~some:text f.Protocol.f_spec;
            }
          in
          let design = ingest obs src in
          let cfg = { Flow.Config.default with Flow.Config.cache = Some cache; jobs = Some 1 } in
          let result = Flow.run_cfg cfg design in
          ignore (Obs.time obs "report.json" (fun () -> Report.json_string result))
      | _ -> ())
    reads;
  {
    setup_s = [];
    lat_ms = [];
    wall_s = now () -. t0;
    attempted = List.length requests;
    failed = 0;
    checks = [];
    counts = [];
    extra = [];
  }

(* --------------------------------------------------------------- main *)

let () =
  let args = parse_args () in
  let obs = match args.trace with Some _ -> Obs.create () | None -> Obs.null in
  let run =
    match args.workload with
    | "cold_flow" -> cold_flow
    | "xtalk_flow" -> xtalk_flow
    | "fig7_sweep" -> fig7_sweep
    | "replay" -> replay
    | w -> failwith ("worker: unknown workload " ^ w)
  in
  let o = run args obs in
  let m = Obs.snapshot obs in
  let floats_obj l = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) l) in
  Option.iter (fun path -> write_file path (Rlc_obs.Export.chrome_trace m)) args.trace;
  let floats l = Json.List (List.map (fun x -> Json.Float x) l) in
  let ints l = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) l) in
  write_file args.out
    (Json.to_string
       (Json.Obj
          ([
             ("workload", Json.Str args.workload);
             ("setup_s", floats o.setup_s);
             ("lat_ms", floats o.lat_ms);
             ("wall_s", Json.Float o.wall_s);
             ("attempted", Json.Int o.attempted);
             ("failed", Json.Int o.failed);
             ("checks", Json.Obj (List.map (fun (k, v) -> (k, Json.Bool v)) o.checks));
             ("counts", ints o.counts);
             ("obs_counters", ints !phase_counters);
             ("obs_stat_sums", floats_obj !phase_stat_sums);
             ("peak_rss_kb", Json.Int (peak_rss_kb ()));
           ]
          @ o.extra)))
