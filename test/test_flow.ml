(* Rlc_flow tests: spec parsing, design ingest + levelization, the domain
   pool, the bounded memo behind the result cache, and the flow's determinism across jobs counts. *)

module Spec = Rlc_flow.Spec
module Design = Rlc_flow.Design
module Memo = Rlc_memo.Memo
module Pool = Rlc_parallel.Pool
module Flow = Rlc_flow.Flow
module Report = Rlc_flow.Report

(* ---------------------------------------------------------- fixtures *)

(* Two identical bus bits feeding two identical local nets — small enough
   to keep runtest fast, rich enough to exercise levels, edge alternation
   and cache collisions. *)
let spef_src =
  {|*SPEF "IEEE 1481-1998"
*DESIGN "flow_test"
*T_UNIT 1 PS
*C_UNIT 1 FF
*R_UNIT 1 OHM
*L_UNIT 1 PH
*D_NET b0 300
*CONN
*P b0_drv O
*P b0_rcv I
*CAP
1 b0_1 150
2 b0_rcv 150
*RES
1 b0_drv b0_1 30
2 b0_1 b0_rcv 30
*INDUC
1 b0_drv b0_1 1500
2 b0_1 b0_rcv 1500
*END
*D_NET b1 300
*CONN
*P b1_drv O
*P b1_rcv I
*CAP
1 b1_1 150
2 b1_rcv 150
*RES
1 b1_drv b1_1 30
2 b1_1 b1_rcv 30
*INDUC
1 b1_drv b1_1 1500
2 b1_1 b1_rcv 1500
*END
*D_NET o0 90
*CONN
*P o0_drv O
*P o0_rcv I
*CAP
1 o0_1 45
2 o0_rcv 45
*RES
1 o0_drv o0_1 60
2 o0_1 o0_rcv 60
*END
*D_NET o1 90
*CONN
*P o1_drv O
*P o1_rcv I
*CAP
1 o1_1 45
2 o1_rcv 45
*RES
1 o1_drv o1_1 60
2 o1_1 o1_rcv 60
*END
|}

let spec_src =
  {|# two bus bits into two local nets
driver b0 75
driver b1 75
input b0 100
input b1 100
driver o0 50
driver o1 50
edge b0 b0_rcv o0
edge b1 b1_rcv o1
load o0 o0_rcv 5
load o1 o1_rcv 5
|}

(* Typed-error parses, flattened to strings so [check_error] can treat
   parse and ingest failures uniformly. *)
let spef_parse src = Result.map_error Rlc_errors.Error.message (Rlc_spef.Spef.parse_res src)
let spec_parse src = Result.map_error Rlc_errors.Error.message (Spec.parse_res src)
let spef = lazy (Result.get_ok (spef_parse spef_src))
let spec = lazy (Result.get_ok (spec_parse spec_src))

let design =
  lazy
    (match Design.ingest ~spef:(Lazy.force spef) ~spec:(Lazy.force spec) () with
    | Ok d -> d
    | Error e -> failwith e)

let ingest_with ~spec_src =
  match spec_parse spec_src with
  | Error e -> Error e
  | Ok spec -> Design.ingest ~spef:(Lazy.force spef) ~spec ()

let check_error msg = function
  | Ok _ -> Alcotest.fail (msg ^ ": accepted")
  | Error e -> Alcotest.(check bool) (msg ^ ": message non-empty") true (String.length e > 0)

(* -------------------------------------------------------------- spec *)

let test_spec_parse () =
  let s = Lazy.force spec in
  Alcotest.(check int) "drivers" 4 (List.length s.Spec.drivers);
  Alcotest.(check int) "inputs" 2 (List.length s.Spec.inputs);
  Alcotest.(check int) "edges" 2 (List.length s.Spec.edges);
  Alcotest.(check int) "loads" 2 (List.length s.Spec.loads);
  Alcotest.(check (float 1e-18)) "slew in seconds" 100e-12 (List.assoc "b0" s.Spec.inputs);
  Alcotest.(check (float 1e-20)) "load in farads" 5e-15
    (match s.Spec.loads with (_, _, c) :: _ -> c | [] -> nan)

let test_spec_roundtrip () =
  let s = Lazy.force spec in
  let s' = Result.get_ok (spec_parse (Spec.to_string s)) in
  Alcotest.(check bool) "roundtrip" true (s = s')

let test_spec_errors () =
  check_error "duplicate driver" (spec_parse "driver a 75\ndriver a 50\n");
  check_error "duplicate input" (spec_parse "input a 100\ninput a 50\n");
  check_error "negative size" (spec_parse "driver a -3\n");
  check_error "zero slew" (spec_parse "input a 0\n");
  check_error "self edge" (spec_parse "edge a p a\n");
  check_error "negative load" (spec_parse "load a p -1\n");
  check_error "unknown keyword" (spec_parse "wire a b\n");
  check_error "bad number" (spec_parse "driver a huge\n");
  (* Typed errors carry the 1-based line number. *)
  match Spec.parse_res "driver a 75\ndriver a 50\n" with
  | Error (Rlc_errors.Error.Parse { line = Some 2; _ }) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Rlc_errors.Error.to_string e)
  | Ok _ -> Alcotest.fail "duplicate accepted"

let test_spec_comments () =
  let s = Result.get_ok (spec_parse "# comment\n  // also comment\ndriver a 75 # trailing\n") in
  Alcotest.(check int) "one driver" 1 (List.length s.Spec.drivers)

let test_spec_default () =
  let s = Spec.default_of_spef ~size:60. ~slew:80e-12 (Lazy.force spef) in
  Alcotest.(check int) "all nets driven" 4 (List.length s.Spec.drivers);
  Alcotest.(check int) "all nets inputs" 4 (List.length s.Spec.inputs);
  Alcotest.(check (float 0.)) "size" 60. (List.assoc "b0" s.Spec.drivers)

(* ------------------------------------------------------------ ingest *)

let test_ingest_shape () =
  let d = Lazy.force design in
  Alcotest.(check int) "nets" 4 (Design.n_nets d);
  Alcotest.(check int) "levels" 2 (Array.length d.Design.levels);
  (* Ids are sorted by name: b0 b1 o0 o1. *)
  Alcotest.(check (list string)) "names" [ "b0"; "b1"; "o0"; "o1" ]
    (Array.to_list (Array.map (fun (n : Design.net) -> n.Design.name) d.Design.nets));
  Alcotest.(check (list int)) "level 0" [ 0; 1 ] (Array.to_list d.Design.levels.(0));
  Alcotest.(check (list int)) "level 1" [ 2; 3 ] (Array.to_list d.Design.levels.(1));
  let b0 = d.Design.nets.(0) and o0 = d.Design.nets.(2) in
  Alcotest.(check string) "root from Output conn" "b0_drv" b0.Design.root_pin;
  Alcotest.(check (list int)) "fanout" [ 2 ] b0.Design.fanout;
  Alcotest.(check bool) "o0 fanin is b0" true (o0.Design.fanin = Some 0);
  Alcotest.(check bool) "b0 is primary" true (Option.is_some b0.Design.prim_slew);
  Alcotest.(check bool) "o0 is not primary" true (Option.is_none o0.Design.prim_slew);
  Alcotest.(check (list (float 0.))) "sizes deduped" [ 50.; 75. ] d.Design.sizes;
  (* b0's tree carries o0's gate input cap at the edge pin, so its total cap
     exceeds the bare wire cap. *)
  let wire = Rlc_spef.Spef.net_total_cap (Option.get (Rlc_spef.Spef.find_net (Lazy.force spef) "b0")) in
  Alcotest.(check bool) "fanout gate cap added" true
    (Rlc_moments.Tree.total_cap b0.Design.tree > wire +. 1e-16);
  (* o0's lumped far load is the explicit 5 fF. *)
  Alcotest.(check (float 1e-20)) "explicit load" 5e-15 o0.Design.cl

let test_ingest_errors () =
  check_error "net missing from SPEF" (ingest_with ~spec_src:"driver nope 75\ninput nope 100\n");
  check_error "edge to net without driver"
    (ingest_with ~spec_src:"driver b0 75\ninput b0 100\nedge b0 b0_rcv o0\n");
  check_error "multiple fanin"
    (ingest_with
       ~spec_src:
         "driver b0 75\ninput b0 100\ndriver b1 75\ninput b1 100\ndriver o0 50\nedge b0 b0_rcv \
          o0\nedge b1 b1_rcv o0\n");
  check_error "no slew source"
    (ingest_with ~spec_src:"driver b0 75\ninput b0 100\ndriver o0 50\n");
  check_error "both input and edge-driven"
    (ingest_with
       ~spec_src:"driver b0 75\ninput b0 100\ndriver o0 50\ninput o0 100\nedge b0 b0_rcv o0\n");
  check_error "cycle"
    (ingest_with
       ~spec_src:"driver b0 75\ndriver b1 75\nedge b0 b0_rcv b1\nedge b1 b1_rcv b0\n");
  check_error "edge pin not on the net"
    (ingest_with
       ~spec_src:
         "driver b0 75\ninput b0 100\ndriver o0 50\nedge b0 nonexistent_pin o0\n")

let test_ingest_no_driver_conn () =
  (* A net whose SPEF section lacks an Output *CONN cannot be rooted. *)
  let src =
    "*D_NET n 1.0\n*CONN\n*P rcv I\n*CAP\n1 a 1.0\n2 rcv 1.0\n*RES\n1 a rcv 10\n*END\n"
  in
  let spef = Result.get_ok (spef_parse src) in
  let spec = Result.get_ok (spec_parse "driver n 75\ninput n 100\n") in
  check_error "no Output conn" (Design.ingest ~spef ~spec ())

(* -------------------------------------------------------------- pool *)

let test_pool_map () =
  Pool.with_pool ~jobs:4 (fun p ->
      Alcotest.(check int) "jobs" 4 (Pool.jobs p);
      let r = Pool.map p 100 (fun i -> i * i) in
      Alcotest.(check int) "length" 100 (Array.length r);
      Array.iteri (fun i v -> Alcotest.(check int) "in order" (i * i) v) r;
      (* Reuse: a second batch on the same pool. *)
      let r2 = Pool.map p 7 (fun i -> -i) in
      Alcotest.(check int) "second batch" (-6) r2.(6);
      Alcotest.(check int) "empty batch" 0 (Array.length (Pool.map p 0 (fun i -> i))))

let test_pool_sequential () =
  Pool.with_pool ~jobs:1 (fun p ->
      let r = Pool.map p 10 (fun i -> 2 * i) in
      Alcotest.(check int) "inline" 18 r.(9))

let test_pool_exception () =
  (* The lowest-index exception wins, deterministically, and the pool
     survives for the next batch. *)
  Pool.with_pool ~jobs:4 (fun p ->
      (match Pool.map p 50 (fun i -> if i mod 7 = 3 then failwith (string_of_int i) else i) with
      | _ -> Alcotest.fail "expected exception"
      | exception Failure msg -> Alcotest.(check string) "lowest index" "3" msg);
      let r = Pool.map p 5 (fun i -> i + 1) in
      Alcotest.(check int) "pool still usable" 5 r.(4))

let test_pool_parallelism () =
  (* All domains really participate: count distinct domain ids seen. *)
  Pool.with_pool ~jobs:4 (fun p ->
      let seen = Array.make 256 false in
      let r =
        Pool.map p 64 (fun _ ->
            let id = (Domain.self () :> int) in
            (* benign race: worst case we under-count *)
            seen.(id mod 256) <- true;
            Unix.sleepf 0.001;
            id)
      in
      ignore r;
      let n = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen in
      Alcotest.(check bool) "more than one domain" true (n > 1))

(* ------------------------------------------------------------- cache *)

let test_cache_basics () =
  let c : int Memo.t = Memo.create ~capacity:Flow.cache_capacity () in
  let calls = ref 0 in
  let compute () = incr calls; 42 in
  let v, hit = Memo.find_or_add c "k" compute in
  Alcotest.(check bool) "miss" false hit;
  Alcotest.(check int) "value" 42 v;
  let v', hit' = Memo.find_or_add c "k" compute in
  Alcotest.(check bool) "hit" true hit';
  Alcotest.(check int) "same value" 42 v';
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check int) "hits" 1 (Memo.stats c).hits;
  Alcotest.(check int) "misses" 1 (Memo.stats c).misses;
  Alcotest.(check int) "length" 1 (Memo.stats c).entries;
  Memo.clear c;
  Alcotest.(check int) "cleared" 0 (Memo.stats c).entries;
  (* Counters never go down: the dropped entry counts as an eviction. *)
  Alcotest.(check int) "clear counts an eviction" 1 (Memo.stats c).evictions;
  Alcotest.(check int) "hits survive clear" 1 (Memo.stats c).hits

let test_cache_sharded_concurrent () =
  let create shards : int Memo.t = Memo.create ~shards ~capacity:Flow.cache_capacity () in
  let c = create 4 in
  Alcotest.(check int) "power-of-two count kept" 4 (Memo.shards c);
  Alcotest.(check int) "odd count rounds up" 8 (Memo.shards (create 5));
  Alcotest.(check int) "zero clamps to one shard" 1 (Memo.shards (create 0));
  (* Hammer one cache from several domains.  Every find_or_add counts
     exactly one hit or one miss, values are first-insert-wins, and the
     per-shard stats must reconcile with the aggregate view. *)
  let keys = Array.init 64 (fun i -> Printf.sprintf "net-%d-slew" i) in
  let rounds = 10 and writers = 4 in
  let worker () =
    for _ = 1 to rounds do
      Array.iter
        (fun k ->
          let v, _hit = Memo.find_or_add c k (fun () -> String.length k) in
          assert (v = String.length k))
        keys
    done
  in
  let domains = List.init writers (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  let total = Memo.stats c in
  Alcotest.(check int) "one entry per distinct key" (Array.length keys) total.entries;
  Alcotest.(check int) "hits + misses = lookups" (writers * rounds * Array.length keys)
    (total.hits + total.misses);
  Alcotest.(check bool) "each key missed at least once" true
    (total.misses >= Array.length keys);
  let stats = Memo.shard_stats c in
  Alcotest.(check int) "one stat per shard" (Memo.shards c) (Array.length stats);
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 stats in
  Alcotest.(check int) "shard lengths sum to length" total.entries
    (sum (fun (s : Memo.stats) -> s.entries));
  Alcotest.(check int) "shard hits sum to hits" total.hits (sum (fun s -> s.hits));
  Alcotest.(check int) "shard misses sum to misses" total.misses (sum (fun s -> s.misses));
  Memo.clear c;
  Alcotest.(check int) "clear empties every shard" 0 (Memo.stats c).entries

let test_cache_quantize () =
  let q = Flow.quantize ~digits:9 in
  Alcotest.(check bool) "collapses tiny diffs" true (q 1.0000000001 = q 1.0000000002);
  Alcotest.(check bool) "keeps real diffs" true (q 1.001 <> q 1.002);
  Alcotest.(check (float 0.)) "exact zero" 0. (q 0.);
  Alcotest.(check bool) "nan passthrough" true (Float.is_nan (q Float.nan));
  let qs = Flow.quantize_slew ~grid:0.1e-12 in
  Alcotest.(check (float 1e-30)) "snaps to grid" 100e-12 (qs 100.04e-12);
  Alcotest.(check bool) "same bucket same key" true (qs 50.01e-12 = qs 49.99e-12)

let fill c keys = List.iter (fun k -> ignore (Memo.find_or_add c k (fun () -> k))) keys
let keys prefix n = List.init n (Printf.sprintf "%s%d" prefix)

let test_cache_bounded_shards () =
  (* capacity / shards entries per shard, however many distinct keys
     arrive; a capacity below the shard count keeps one entry per shard. *)
  List.iter
    (fun (shards, capacity, per_shard) ->
      let c : string Memo.t = Memo.create ~shards ~capacity () in
      fill c (keys "k" 2000);
      Array.iteri
        (fun i (s : Memo.stats) ->
          if s.entries > per_shard then
            Alcotest.failf "shards %d / capacity %d: shard %d holds %d > %d" shards capacity i
              s.entries per_shard)
        (Memo.shard_stats c);
      Alcotest.(check int)
        (Printf.sprintf "shards %d / capacity %d: capacity" shards capacity)
        (shards * per_shard) (Memo.capacity c);
      Alcotest.(check bool)
        (Printf.sprintf "shards %d / capacity %d: bounded" shards capacity)
        true
        ((Memo.stats c).entries <= shards * per_shard))
    [ (4, 32, 8); (16, 16, 1); (16, 4, 1); (16, Flow.cache_capacity, 128) ]

let test_cache_evictions_reconcile () =
  let c : string Memo.t = Memo.create ~shards:4 ~capacity:64 () in
  fill c (keys "k" 500);
  let total = Memo.stats c in
  Alcotest.(check int) "misses" 500 total.misses;
  Alcotest.(check int) "evictions = misses - length" (total.misses - total.entries)
    total.evictions;
  let stats = Memo.shard_stats c in
  Array.iteri
    (fun i (s : Memo.stats) ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d: evictions = misses - length" i)
        (s.misses - s.entries) s.evictions)
    stats;
  Alcotest.(check int) "shard evictions sum to evictions" total.evictions
    (Array.fold_left (fun acc (s : Memo.stats) -> acc + s.evictions) 0 stats);
  Memo.clear c;
  Alcotest.(check int) "clear counts what it drops as evictions" total.misses
    (Memo.stats c).evictions;
  fill c (keys "k" 10);
  Alcotest.(check int) "a cleared cache refills without evicting" 10 (Memo.stats c).entries;
  Alcotest.(check int) "refill evicts nothing" total.misses (Memo.stats c).evictions

(* Single-shard caches make the clock's victims predictable. *)
let test_cache_second_chance () =
  let c : string Memo.t = Memo.create ~shards:1 ~capacity:8 () in
  let hit k =
    snd (Memo.find_or_add c k (fun () -> Alcotest.failf "%s recomputed" k))
  in
  fill c (keys "a" 8);
  Alcotest.(check bool) "a3 hit between sweeps" true (hit "a3");
  (* A second sweep of 7 new keys: the hand passes a3 once, clearing its
     bit, and evicts every other first-sweep key. *)
  fill c (keys "b" 7);
  Alcotest.(check int) "full" 8 (Memo.stats c).entries;
  Alcotest.(check bool) "a3 survives one clock pass" true (hit "a3");
  let _, a0_hit = Memo.find_or_add c "a0" (fun () -> "a0") in
  Alcotest.(check bool) "an unreferenced key was evicted" false a0_hit;
  (* Without another hit, a3's second chance is spent on the next pass. *)
  let c : string Memo.t = Memo.create ~shards:1 ~capacity:8 () in
  fill c (keys "a" 8);
  ignore (hit "a3");
  fill c (keys "b" 7);
  fill c (keys "c" 8);
  let _, a3_hit = Memo.find_or_add c "a3" (fun () -> "a3") in
  Alcotest.(check bool) "a3 evicted after a pass without hits" false a3_hit

let test_cache_remove_if () =
  (* Dropped entries count as evictions; the survivors keep their slots in
     the clock, and the freed slots fill before anything is evicted. *)
  let c : string Memo.t = Memo.create ~shards:1 ~capacity:8 () in
  fill c (keys "a" 8);
  ignore (Memo.find_or_add c "a1" (fun () -> Alcotest.fail "a1 recomputed"));
  Memo.remove_if c (fun k -> int_of_string (String.sub k 1 1) mod 2 = 0);
  let s = Memo.stats c in
  Alcotest.(check (pair int int)) "4 held, 4 evicted" (4, 4) (s.entries, s.evictions);
  fill c (keys "b" 4);
  Alcotest.(check int) "freed slots refill without evicting" 4 (Memo.stats c).evictions;
  fill c (keys "c" 1);
  Alcotest.(check int) "a full ring evicts again" 5 (Memo.stats c).evictions;
  let _, a1_hit = Memo.find_or_add c "a1" (fun () -> "a1") in
  Alcotest.(check bool) "the referenced survivor had its second chance" true a1_hit

let test_cache_remiss_bitwise () =
  (* A re-miss after eviction recomputes the bit-identical solve. *)
  let d = Lazy.force design in
  let cache : Flow.solve Memo.t = Memo.create ~shards:1 ~capacity:1 () in
  let cfg = Flow.Config.with_cache cache Flow.Config.default in
  let solve (net : Design.net) =
    Flow.solve_sized cfg ~tech:d.Design.tech ~net ~size:net.Design.size
      ~edge:Rlc_waveform.Measure.Rising ~input_slew:100e-12
  in
  let b0 = d.Design.nets.(0) and o0 = d.Design.nets.(2) in
  let first = solve b0 in
  ignore (solve o0);
  let again = solve b0 in
  Alcotest.(check int) "every solve missed" 3 (Memo.stats cache).misses;
  Alcotest.(check int) "two evictions" 2 (Memo.stats cache).evictions;
  Alcotest.(check bool) "recomputed, not the evicted value" true (first != again);
  let bits = Int64.bits_of_float in
  Alcotest.(check bool) "bitwise-equal delay and slew" true
    (bits first.Flow.stage_delay = bits again.Flow.stage_delay
    && bits first.Flow.far_slew = bits again.Flow.far_slew
    && first.Flow.iterations = again.Flow.iterations);
  let pwl (s : Flow.solve) = Rlc_waveform.Pwl.points s.Flow.model.Rlc_ceff.Driver_model.pwl in
  Alcotest.(check bool) "bitwise-equal model waveform" true
    (List.for_all2
       (fun (t, v) (t', v') -> bits t = bits t' && bits v = bits v')
       (pwl first) (pwl again))

(* -------------------------------------------------------------- flow *)

(* All flow tests drive the Config record directly — it is the only entry
   point since the [Flow.run] shim was removed. *)
let run ?(jobs = 1) ?(use_cache = true) ?cache d =
  Flow.run_cfg { Flow.Config.default with Flow.Config.jobs = Some jobs; use_cache; cache } d

let test_flow_determinism () =
  let d = Lazy.force design in
  let r1 = run ~jobs:1 d in
  let r4 = run ~jobs:4 d in
  Alcotest.(check string) "json identical across jobs" (Report.json_string r1)
    (Report.json_string r4);
  Alcotest.(check string) "csv identical across jobs" (Report.csv_string r1)
    (Report.csv_string r4);
  (* And a no-cache run computes the very same numbers. *)
  let r_nc = run ~jobs:1 ~use_cache:false d in
  Alcotest.(check string) "cache does not change results" (Report.json_string r1)
    (Report.json_string r_nc)

let test_flow_results () =
  let d = Lazy.force design in
  let r = run ~jobs:1 d in
  Alcotest.(check int) "all nets solved" 4 (Array.length r.Flow.results);
  let b0 = r.Flow.results.(0) and b1 = r.Flow.results.(1) and o0 = r.Flow.results.(2) in
  Alcotest.(check bool) "roots rise" true (b0.Flow.edge = Rlc_waveform.Measure.Rising);
  Alcotest.(check bool) "level 1 falls" true (o0.Flow.edge = Rlc_waveform.Measure.Falling);
  (* Identical bus bits time identically. *)
  Alcotest.(check (float 0.)) "b0 = b1 delay" b0.Flow.solve.Flow.stage_delay
    b1.Flow.solve.Flow.stage_delay;
  (* Arrivals accumulate along the chain. *)
  Alcotest.(check (float 1e-15)) "arrival = parent + stage"
    (b0.Flow.arrival +. o0.Flow.solve.Flow.stage_delay)
    o0.Flow.arrival;
  Alcotest.(check bool) "positive delays" true (b0.Flow.solve.Flow.stage_delay > 0.);
  (* Handoff: o0's input slew derives from b0's far slew like Rlc_sta does. *)
  let expect =
    Flow.quantize_slew
      (Rlc_sta.Sta.handoff_slew ~far_slew:b0.Flow.solve.Flow.far_slew)
  in
  Alcotest.(check (float 1e-16)) "slew handoff" expect o0.Flow.input_slew;
  (* Critical path runs from a level-0 net to a level-1 net. *)
  match Flow.critical_path r with
  | [ first; last ] ->
      Alcotest.(check int) "path root level" 0 first.Flow.net.Design.level;
      Alcotest.(check int) "path end level" 1 last.Flow.net.Design.level
  | p -> Alcotest.fail (Printf.sprintf "expected 2-net path, got %d" (List.length p))

let test_flow_cache_effect () =
  let d = Lazy.force design in
  let cache = Flow.create_cache () in
  let cold = run ~jobs:1 ~cache d in
  (* b1 hits b0's entry, o1 hits o0's: 2 misses, 2 hits. *)
  Alcotest.(check int) "cold misses" 2 cold.Flow.stats.Flow.cache_misses;
  Alcotest.(check int) "cold hits" 2 cold.Flow.stats.Flow.cache_hits;
  Alcotest.(check bool) "cold spends iterations" true
    (cold.Flow.stats.Flow.iterations_spent > 0);
  (* >= 2x fewer iterations actually run than modeled, thanks to the bits. *)
  Alcotest.(check bool) "cache halves the work" true
    (2 * cold.Flow.stats.Flow.iterations_spent <= cold.Flow.stats.Flow.iterations_total);
  let warm = run ~jobs:1 ~cache d in
  Alcotest.(check int) "warm misses" 0 warm.Flow.stats.Flow.cache_misses;
  Alcotest.(check int) "warm hits" 4 warm.Flow.stats.Flow.cache_hits;
  Alcotest.(check int) "warm spends nothing" 0 warm.Flow.stats.Flow.iterations_spent;
  Alcotest.(check string) "warm = cold results" (Report.json_string cold)
    (Report.json_string warm)

let test_flow_stats_and_report () =
  let d = Lazy.force design in
  let r = run ~jobs:1 d in
  Alcotest.(check int) "levels" 2 r.Flow.stats.Flow.n_levels;
  Alcotest.(check bool) "phases recorded" true (List.length r.Flow.stats.Flow.phases >= 3);
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let json = Report.json_string ~required:200e-12 r in
  Alcotest.(check bool) "has slack" true (contains json "worst_slack_ps");
  Alcotest.(check bool) "no scheduling-dependent fields" true
    (not (contains json "cache") && not (contains json "phase"));
  let csv = Report.csv_string r in
  Alcotest.(check int) "csv rows = nets + header" 5
    (List.length (List.filter (fun s -> s <> "") (String.split_on_char '\n' csv)))

let test_flow_config_defaults () =
  (* The Config record's defaults mirror the old optional-argument defaults. *)
  let c = Flow.Config.default in
  Alcotest.(check (float 0.)) "dt" 0.5e-12 c.Flow.Config.dt;
  Alcotest.(check bool) "jobs defaults to the pool's choice" true (c.Flow.Config.jobs = None);
  Alcotest.(check bool) "cache on" true c.Flow.Config.use_cache;
  Alcotest.(check int) "quantize digits" 9 c.Flow.Config.quantize_digits;
  Alcotest.(check (float 0.)) "slew grid" 0.1e-12 c.Flow.Config.slew_grid;
  Alcotest.(check bool) "no borrowed pool" true (c.Flow.Config.pool = None);
  let c2 = Flow.Config.with_jobs 3 c in
  Alcotest.(check bool) "with_jobs" true (c2.Flow.Config.jobs = Some 3);
  let cache = Flow.create_cache () in
  let c3 = Flow.Config.with_cache cache c in
  Alcotest.(check bool) "with_cache" true
    (match c3.Flow.Config.cache with Some c -> c == cache | None -> false)

let test_flow_borrowed_pool () =
  let d = Lazy.force design in
  let baseline = run ~jobs:2 d in
  Pool.with_pool ~jobs:2 (fun pool ->
      let cfg = { Flow.Config.default with Flow.Config.pool = Some pool } in
      let r1 = Flow.run_cfg cfg d in
      (* The pool survives the run (borrowed, not owned) and a second run
         over the same pool still works and agrees byte-for-byte. *)
      let r2 = Flow.run_cfg cfg d in
      Alcotest.(check string) "borrowed pool json" (Report.json_string baseline)
        (Report.json_string r1);
      Alcotest.(check string) "pool reusable across runs" (Report.json_string r1)
        (Report.json_string r2))

(* dune runtest runs from _build/default/test/ (examples one up, staged by
   the (deps ...) in test/dune); dune exec from the project root. *)
let fixture name =
  if Sys.file_exists (Filename.concat "examples" name) then Filename.concat "examples" name
  else Filename.concat "../examples" name

let ingest_sources ~spef ~spec =
  match spef_parse spef, spec_parse spec with
  | Ok spef, Ok spec -> (
      match Design.ingest ~spef ~spec () with Ok d -> d | Error e -> failwith e)
  | Error e, _ | _, Error e -> failwith e

let bus8 =
  lazy
    (let read name = In_channel.with_open_bin (fixture name) In_channel.input_all in
     ingest_sources ~spef:(read "bus8.spef") ~spec:(read "bus8.spec"))

(* 16 bus bits, each into a local net, every bit's capacitance distinct so
   the 32 nets make ~32 distinct cache keys. *)
let bus16 =
  lazy
    (let spef = Buffer.create 8192 and spec = Buffer.create 1024 in
     Buffer.add_string spef
       "*SPEF \"IEEE 1481-1998\"\n*DESIGN \"bus16\"\n*T_UNIT 1 PS\n*C_UNIT 1 FF\n\
        *R_UNIT 1 OHM\n*L_UNIT 1 PH\n";
     for i = 0 to 15 do
       let c = 120 + (10 * i) in
       Printf.bprintf spef
         "*D_NET b%d %d\n*CONN\n*P b%d_drv O\n*P b%d_rcv I\n*CAP\n1 b%d_1 %d\n2 b%d_rcv %d\n\
          *RES\n1 b%d_drv b%d_1 30\n2 b%d_1 b%d_rcv 30\n*INDUC\n1 b%d_drv b%d_1 1500\n\
          2 b%d_1 b%d_rcv 1500\n*END\n"
         i (2 * c) i i i c i c i i i i i i i i;
       Printf.bprintf spef
         "*D_NET o%d 90\n*CONN\n*P o%d_drv O\n*P o%d_rcv I\n*CAP\n1 o%d_1 45\n2 o%d_rcv 45\n\
          *RES\n1 o%d_drv o%d_1 60\n2 o%d_1 o%d_rcv 60\n*END\n"
         i i i i i i i i i;
       Printf.bprintf spec
         "driver b%d 75\ninput b%d 100\ndriver o%d 50\nedge b%d b%d_rcv o%d\nload o%d o%d_rcv 5\n"
         i i i i i i i i
     done;
     ingest_sources ~spef:(Buffer.contents spef) ~spec:(Buffer.contents spec))

(* Eviction never reaches a report: a cache of one entry per shard, which
   thrashes, gives the default cache's bytes at any jobs count. *)
let test_flow_bounded_cache_reports () =
  List.iter
    (fun (name, d, overflows) ->
      let d = Lazy.force d in
      let reference = run ~jobs:1 d in
      List.iter
        (fun jobs ->
          let cache : Flow.solve Memo.t = Memo.create ~capacity:16 () in
          let r = run ~jobs ~cache d in
          let ctx = Printf.sprintf "%s, capacity 16, jobs %d" name jobs in
          Alcotest.(check string) (ctx ^ ": json") (Report.json_string reference)
            (Report.json_string r);
          Alcotest.(check string) (ctx ^ ": csv") (Report.csv_string reference)
            (Report.csv_string r);
          Alcotest.(check bool) (ctx ^ ": one entry per shard") true
            ((Memo.stats cache).entries <= 16);
          if overflows then
            Alcotest.(check bool) (ctx ^ ": evicted") true ((Memo.stats cache).evictions > 0);
          Alcotest.(check string) (ctx ^ ": default cache json") (Report.json_string reference)
            (Report.json_string (run ~jobs d)))
        [ 1; 2 ])
    [ ("bus8", bus8, false); ("bus16", bus16, true) ]

(* Every bus8 net's solve is the full-window replay of its canonical
   inputs, measured as before the far-end stop: the quantized line and
   load ([Flow]'s canonicalization) under the solve's model waveform. *)
let test_flow_replay_far_oracle () =
  let d = Lazy.force bus8 in
  let q = Flow.quantize ~digits:Flow.Config.default.Flow.Config.quantize_digits in
  let bits = Int64.bits_of_float in
  List.iter
    (fun (mode, adaptive) ->
      let cfg = { Flow.Config.default with Flow.Config.jobs = Some 1; adaptive } in
      let r = Flow.run_cfg cfg d in
      Array.iter
        (fun (nr : Flow.net_result) ->
          let net = nr.Flow.net in
          let line = net.Design.eq_line in
          let line =
            Rlc_tline.Line.of_totals
              ~r:(q (Rlc_tline.Line.total_r line))
              ~l:(q (Rlc_tline.Line.total_l line))
              ~c:(q (Rlc_tline.Line.total_c line))
              ~length:line.Rlc_tline.Line.length
          in
          let model = nr.Flow.solve.Flow.model in
          let vdd = model.Rlc_ceff.Driver_model.vdd in
          let _, far =
            Rlc_ceff.Reference.replay_pwl ?adaptive ~dt:cfg.Flow.Config.dt
              ~pwl:model.Rlc_ceff.Driver_model.pwl ~line ~cl:(q net.Design.cl) ()
          in
          let module M = Rlc_waveform.Measure in
          let delay = M.t_frac_exn far ~vdd ~edge:M.Rising ~frac:0.5 in
          let slew = Option.get (M.slew_10_90 far ~vdd ~edge:M.Rising) in
          let s = nr.Flow.solve in
          if bits delay <> bits s.Flow.stage_delay || bits slew <> bits s.Flow.far_slew then
            Alcotest.failf "%s %s: flow (%.17g, %.17g) <> full window (%.17g, %.17g)" mode
              net.Design.name s.Flow.stage_delay s.Flow.far_slew delay slew)
        r.Flow.results)
    [ ("fixed", None); ("adaptive", Some (Rlc_circuit.Engine.default_adaptive ())) ]

(* ------------------------------------------------------------- delta *)

module Delta = Rlc_flow.Delta

let time_cfg cfg =
  match Flow.time cfg ~spef:(Lazy.force spef) ~spec:(Lazy.force spec) () with
  | Ok t -> t
  | Error e -> Alcotest.failf "time: %s" (Rlc_errors.Error.message e)

(* b0's parasitic block with every capacitance scaled 150 -> 180 fF. *)
let b0_heavier =
  "*D_NET b0 360\n*CONN\n*P b0_drv O\n*P b0_rcv I\n*CAP\n1 b0_1 180\n2 b0_rcv 180\n\
   *RES\n1 b0_drv b0_1 30\n2 b0_1 b0_rcv 30\n*INDUC\n1 b0_drv b0_1 1500\n2 b0_1 b0_rcv 1500\n*END"

(* The ground truth every retime must match: apply the delta to the
   sources, ingest from scratch, run the flow cold. *)
let cold_of delta =
  match Delta.apply ~spef:(Lazy.force spef) ~spec:(Lazy.force spec) delta with
  | Error e -> Alcotest.failf "apply: %s" (Rlc_errors.Error.message e)
  | Ok a -> (
      match Design.ingest ~spef:a.Delta.spef ~spec:a.Delta.spec () with
      | Error e -> Alcotest.failf "ingest: %s" e
      | Ok d -> Flow.run_cfg Flow.Config.default d)

let check_delta name ~retimed delta =
  let t = time_cfg Flow.Config.default in
  match Flow.retime t delta with
  | Error e -> Alcotest.failf "%s: retime: %s" name (Rlc_errors.Error.message e)
  | Ok (t', stats) ->
      Alcotest.(check int) (name ^ ": retimed = cone size") retimed stats.Flow.retimed;
      Alcotest.(check int) (name ^ ": retimed + reused = nets") 4
        (stats.Flow.retimed + stats.Flow.reused);
      let cold = cold_of delta in
      let warm = Flow.Timed.result t' in
      Alcotest.(check string) (name ^ ": json byte-identical to cold run")
        (Report.json_string cold) (Report.json_string warm);
      Alcotest.(check string) (name ^ ": csv byte-identical to cold run")
        (Report.csv_string cold) (Report.csv_string warm);
      t'

let test_delta_cap_edit () =
  (* Heavier b0 dirties b0 and its fanout o0; b1/o1 reuse their solves. *)
  ignore (check_delta "cap edit" ~retimed:2 { Delta.empty with Delta.nets = [ ("b0", b0_heavier) ] })

let test_delta_driver_resize () =
  (* Resizing o0's driver also dirties b0 — its tree folds in o0's gate
     input cap — and through b0's cone that is still just {b0, o0}. *)
  ignore (check_delta "driver resize" ~retimed:2 { Delta.empty with Delta.drivers = [ ("o0", 60.) ] })

let test_delta_slew_edit () =
  ignore (check_delta "slew edit" ~retimed:2 { Delta.empty with Delta.slews = [ ("b0", 120e-12) ] })

let test_delta_compose () =
  (* Two retimes in sequence equal one cold run of both edits. *)
  let d1 = { Delta.empty with Delta.nets = [ ("b0", b0_heavier) ] } in
  let d2 = { Delta.empty with Delta.drivers = [ ("b1", 60.) ] } in
  let t = time_cfg Flow.Config.default in
  let t1 =
    match Flow.retime t d1 with
    | Ok (t1, _) -> t1
    | Error e -> Alcotest.failf "first retime: %s" (Rlc_errors.Error.message e)
  in
  match Flow.retime t1 d2 with
  | Error e -> Alcotest.failf "second retime: %s" (Rlc_errors.Error.message e)
  | Ok (t2, stats) ->
      Alcotest.(check int) "second delta retimes b1's cone" 2 stats.Flow.retimed;
      let a1 =
        Result.get_ok (Delta.apply ~spef:(Lazy.force spef) ~spec:(Lazy.force spec) d1)
      in
      let a2 = Result.get_ok (Delta.apply ~spef:a1.Delta.spef ~spec:a1.Delta.spec d2) in
      let cold =
        match Design.ingest ~spef:a2.Delta.spef ~spec:a2.Delta.spec () with
        | Ok d -> Flow.run_cfg Flow.Config.default d
        | Error e -> Alcotest.failf "ingest: %s" e
      in
      Alcotest.(check string) "composed retimes = cold run of both edits"
        (Report.json_string cold)
        (Report.json_string (Flow.Timed.result t2))

let test_delta_obs_counters () =
  let sink = Rlc_obs.Obs.create () in
  let cfg = { Flow.Config.default with Flow.Config.obs = sink } in
  let t = time_cfg cfg in
  match Flow.retime t { Delta.empty with Delta.nets = [ ("b0", b0_heavier) ] } with
  | Error e -> Alcotest.failf "retime: %s" (Rlc_errors.Error.message e)
  | Ok (_, stats) ->
      let m = Rlc_obs.Obs.snapshot sink in
      Alcotest.(check int) "flow.retimed counter" stats.Flow.retimed
        (Rlc_obs.Obs.counter m "flow.retimed");
      Alcotest.(check int) "flow.reused counter" stats.Flow.reused
        (Rlc_obs.Obs.counter m "flow.reused");
      Alcotest.(check int) "counters sum to net count" 4
        (Rlc_obs.Obs.counter m "flow.retimed" + Rlc_obs.Obs.counter m "flow.reused")

let test_delta_errors () =
  let t = time_cfg Flow.Config.default in
  let check_bad msg delta =
    match Flow.retime t delta with
    | Ok _ -> Alcotest.fail (msg ^ ": accepted")
    | Error (Rlc_errors.Error.Bad_request _) -> ()
    | Error e -> Alcotest.failf "%s: wrong error: %s" msg (Rlc_errors.Error.to_string e)
  in
  check_bad "unknown net" { Delta.empty with Delta.nets = [ ("nope", b0_heavier) ] };
  check_bad "block defines a different net"
    { Delta.empty with Delta.nets = [ ("b1", b0_heavier) ] };
  check_bad "duplicate edit name"
    { Delta.empty with Delta.drivers = [ ("b0", 60.); ("b0", 70.) ] };
  check_bad "non-positive size" { Delta.empty with Delta.drivers = [ ("b0", 0.) ] };
  check_bad "non-positive slew" { Delta.empty with Delta.slews = [ ("b0", -1e-12) ] };
  check_bad "slew on a non-primary net" { Delta.empty with Delta.slews = [ ("o0", 80e-12) ] };
  check_bad "unparsable block" { Delta.empty with Delta.nets = [ ("b0", "*D_NET b0 garbage") ] }

let () =
  Alcotest.run "rlc_flow"
    [
      ( "spec",
        [
          Alcotest.test_case "parse" `Quick test_spec_parse;
          Alcotest.test_case "roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "errors" `Quick test_spec_errors;
          Alcotest.test_case "comments" `Quick test_spec_comments;
          Alcotest.test_case "default from SPEF" `Quick test_spec_default;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "shape" `Quick test_ingest_shape;
          Alcotest.test_case "errors" `Quick test_ingest_errors;
          Alcotest.test_case "no driver conn" `Quick test_ingest_no_driver_conn;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map" `Quick test_pool_map;
          Alcotest.test_case "sequential" `Quick test_pool_sequential;
          Alcotest.test_case "exception" `Quick test_pool_exception;
          Alcotest.test_case "parallelism" `Quick test_pool_parallelism;
        ] );
      ( "cache",
        [
          Alcotest.test_case "basics" `Quick test_cache_basics;
          Alcotest.test_case "sharded concurrent" `Quick test_cache_sharded_concurrent;
          Alcotest.test_case "quantize" `Quick test_cache_quantize;
          Alcotest.test_case "bounded per shard" `Quick test_cache_bounded_shards;
          Alcotest.test_case "evictions reconcile" `Quick test_cache_evictions_reconcile;
          Alcotest.test_case "second chance" `Quick test_cache_second_chance;
          Alcotest.test_case "remove_if" `Quick test_cache_remove_if;
          Alcotest.test_case "re-miss is bitwise equal" `Quick test_cache_remiss_bitwise;
        ] );
      ( "flow",
        [
          Alcotest.test_case "determinism" `Quick test_flow_determinism;
          Alcotest.test_case "results" `Quick test_flow_results;
          Alcotest.test_case "cache effect" `Quick test_flow_cache_effect;
          Alcotest.test_case "stats and report" `Quick test_flow_stats_and_report;
          Alcotest.test_case "config defaults" `Quick test_flow_config_defaults;
          Alcotest.test_case "borrowed pool" `Quick test_flow_borrowed_pool;
          Alcotest.test_case "bounded cache keeps reports" `Quick
            test_flow_bounded_cache_reports;
          Alcotest.test_case "far-end stop = full-window replay (bus8)" `Quick
            test_flow_replay_far_oracle;
        ] );
      ( "delta",
        [
          Alcotest.test_case "cap edit retimes the cone" `Quick test_delta_cap_edit;
          Alcotest.test_case "driver resize dirties the parent" `Quick test_delta_driver_resize;
          Alcotest.test_case "slew edit" `Quick test_delta_slew_edit;
          Alcotest.test_case "deltas compose" `Quick test_delta_compose;
          Alcotest.test_case "obs counters" `Quick test_delta_obs_counters;
          Alcotest.test_case "validation errors" `Quick test_delta_errors;
        ] );
    ]
