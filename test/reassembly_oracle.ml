(* Reference transient stepper for the engine's bit-identity tests.

   Fixed-step, and deliberately naive: at every step (and every Newton
   iteration) it re-stamps every element into a fresh banded system and
   solves it from scratch, which is what the engine computed before its
   compile/factor/step split.  The engine's factor-once step loops must
   reproduce these waveforms bit for bit, so the arithmetic here — each
   companion conductance, history current and stamp, in element order — is
   the specification they are checked against.

   It is built only from the public [Netlist] API, [Engine.options] and
   [Rlc_num.Banded], so it shares no code with the engine it checks.  The
   system is always banded; the engine falls back to dense LU only for
   bandwidths the test circuits never reach. *)
module Banded = Rlc_num.Banded
module Linalg = Rlc_num.Linalg
module Netlist = Rlc_circuit.Netlist
module Engine = Rlc_circuit.Engine

type companion = {
  n1 : int;
  n2 : int;
  value : float;
  mutable v_prev : float;
  mutable i_prev : float;
}

(* Magnetically coupled group: branch currents depend on all branch
   voltages through G = alpha * L^{-1} (alpha = h/2 for trapezoidal, h for
   backward Euler), which stays purely nodal. *)
type coupled_state = {
  k_branches : (int * int) array;
  linv : float array array;
  i_prev_k : float array;
  v_prev_k : float array;
}

type compiled = {
  n_nodes : int;
  n_unknown : int;
  unknown_of_node : int array;  (* -1 for ground and forced nodes *)
  forced : (int * (float -> float)) list;
  resistors : (int * int * float) list;
  caps : companion list;
  inds : companion list;
  coupled : coupled_state list;
  isources : (int * int * (float -> float)) list;
  nonlinears : Netlist.nonlinear list;
  bandwidth : int;
}

let invert m =
  let n = Array.length m in
  let lu = Linalg.lu_factor m in
  let inv = Array.make_matrix n n 0. in
  for j = 0 to n - 1 do
    let e = Array.make n 0. in
    e.(j) <- 1.;
    let col = Linalg.lu_solve lu e in
    for i = 0 to n - 1 do
      inv.(i).(j) <- col.(i)
    done
  done;
  inv

let compile netlist =
  Netlist.validate netlist;
  let n_nodes = Netlist.node_count netlist in
  let forced = Netlist.forced netlist in
  let unknown_of_node = Array.make n_nodes (-1) in
  let next = ref 0 in
  for n = 1 to n_nodes - 1 do
    if not (List.mem_assoc n forced) then begin
      unknown_of_node.(n) <- !next;
      incr next
    end
  done;
  let rs = ref [] and cs = ref [] and ls = ref [] and is_ = ref [] and nls = ref [] in
  let ks = ref [] in
  let bw = ref 1 in
  let band a b =
    let ua = unknown_of_node.(a) and ub = unknown_of_node.(b) in
    if ua >= 0 && ub >= 0 then bw := Int.max !bw (abs (ua - ub))
  in
  List.iter
    (fun (e : Netlist.element) ->
      match e with
      | Resistor { n1; n2; ohms; _ } ->
          band n1 n2;
          rs := (n1, n2, 1. /. ohms) :: !rs
      | Capacitor { n1; n2; farads; _ } ->
          band n1 n2;
          cs := { n1; n2; value = farads; v_prev = 0.; i_prev = 0. } :: !cs
      | Inductor { n1; n2; henries; _ } ->
          band n1 n2;
          ls := { n1; n2; value = henries; v_prev = 0.; i_prev = 0. } :: !ls
      | Current_source { n1; n2; amps; _ } -> is_ := (n1, n2, amps) :: !is_
      | Coupled_inductors { cp_branches; cp_lmat; _ } ->
          let k = Array.length cp_branches in
          Array.iter
            (fun (a1, b1) ->
              Array.iter
                (fun (a2, b2) ->
                  band a1 a2;
                  band a1 b2;
                  band b1 a2;
                  band b1 b2)
                cp_branches)
            cp_branches;
          ks :=
            {
              k_branches = Array.copy cp_branches;
              linv = invert cp_lmat;
              i_prev_k = Array.make k 0.;
              v_prev_k = Array.make k 0.;
            }
            :: !ks
      | Nonlinear nl ->
          Array.iter (fun a -> Array.iter (band a) nl.nl_nodes) nl.nl_nodes;
          nls := nl :: !nls)
    (Netlist.elements netlist);
  {
    n_nodes;
    n_unknown = !next;
    unknown_of_node;
    forced;
    resistors = List.rev !rs;
    caps = List.rev !cs;
    inds = List.rev !ls;
    coupled = List.rev !ks;
    isources = List.rev !is_;
    nonlinears = List.rev !nls;
    bandwidth = !bw;
  }

(* Stamp conductance [g] and constant element current [j] (flowing n1 -> n2)
   into system/rhs given the full node-voltage vector for known nodes. *)
let stamp c sys rhs vnode n1 n2 g j =
  let u1 = c.unknown_of_node.(n1) and u2 = c.unknown_of_node.(n2) in
  if u1 >= 0 then begin
    if g <> 0. then begin
      Banded.add sys u1 u1 g;
      if u2 >= 0 then Banded.add sys u1 u2 (-.g) else rhs.(u1) <- rhs.(u1) +. (g *. vnode.(n2))
    end;
    rhs.(u1) <- rhs.(u1) -. j
  end;
  if u2 >= 0 then begin
    if g <> 0. then begin
      Banded.add sys u2 u2 g;
      if u1 >= 0 then Banded.add sys u2 u1 (-.g) else rhs.(u2) <- rhs.(u2) +. (g *. vnode.(n1))
    end;
    rhs.(u2) <- rhs.(u2) +. j
  end

(* Companion coefficients of a coupled group for the current step:
   [g = alpha L^{-1}] and per-branch history sources. *)
let coupled_companion (k : coupled_state) integration dt =
  let nb = Array.length k.k_branches in
  let alpha = match integration with Engine.Trapezoidal -> dt /. 2. | Backward_euler -> dt in
  let g = Array.init nb (fun p -> Array.map (fun v -> alpha *. v) k.linv.(p)) in
  let ieq =
    Array.init nb (fun p ->
        match integration with
        | Engine.Backward_euler -> k.i_prev_k.(p)
        | Trapezoidal ->
            let acc = ref k.i_prev_k.(p) in
            for q = 0 to nb - 1 do
              acc := !acc +. (g.(p).(q) *. k.v_prev_k.(q))
            done;
            !acc)
  in
  (g, ieq)

(* Branch p carries i_p = sum_q g.(p).(q) (v(aq) - v(bq)) + ieq.(p), flowing
   from the first to the second node of branch p. *)
let stamp_coupled c sys rhs vnode (k : coupled_state) g ieq =
  let nb = Array.length k.k_branches in
  for p = 0 to nb - 1 do
    let ap, bp = k.k_branches.(p) in
    let row node row_sign =
      let u = c.unknown_of_node.(node) in
      if u >= 0 then begin
        for q = 0 to nb - 1 do
          let aq, bq = k.k_branches.(q) in
          let add col col_sign =
            let coeff = row_sign *. col_sign *. g.(p).(q) in
            if coeff <> 0. then begin
              let uc = c.unknown_of_node.(col) in
              if uc >= 0 then Banded.add sys u uc coeff
              else rhs.(u) <- rhs.(u) -. (coeff *. vnode.(col))
            end
          in
          add aq 1.;
          add bq (-1.)
        done;
        rhs.(u) <- rhs.(u) -. (row_sign *. ieq.(p))
      end
    in
    row ap 1.;
    row bp (-1.)
  done

let stamp_nonlinear c sys rhs vnode (dev : Netlist.nonlinear) =
  let nn = Array.length dev.nl_nodes in
  let v = Array.map (fun n -> vnode.(n)) dev.nl_nodes in
  let i, gm = dev.nl_eval v in
  for k = 0 to nn - 1 do
    let uk = c.unknown_of_node.(dev.nl_nodes.(k)) in
    if uk >= 0 then begin
      let acc = ref (-.i.(k)) in
      for jn = 0 to nn - 1 do
        let uj = c.unknown_of_node.(dev.nl_nodes.(jn)) in
        if uj >= 0 then begin
          Banded.add sys uk uj gm.(k).(jn);
          acc := !acc +. (gm.(k).(jn) *. v.(jn))
        end
      done;
      rhs.(uk) <- rhs.(uk) +. !acc
    end
  done

(* Newton iteration over a fresh assembly of the linear part per iteration
   (one plain solve when there are no nonlinear devices).  Returns the
   iteration count. *)
let newton (opts : Engine.options) c ~assemble ~vnode ~t =
  let solve_into_vnode clamp =
    let sys, rhs = assemble () in
    List.iter (fun dev -> stamp_nonlinear c sys rhs vnode dev) c.nonlinears;
    Banded.solve_in_place sys rhs;
    let worst = ref 0. in
    for n = 1 to c.n_nodes - 1 do
      let u = c.unknown_of_node.(n) in
      if u >= 0 then begin
        let dv = rhs.(u) -. vnode.(n) in
        worst := Float.max !worst (Float.abs dv);
        vnode.(n) <-
          (if clamp then vnode.(n) +. Float.max (-.opts.dv_limit) (Float.min opts.dv_limit dv)
           else rhs.(u))
      end
    done;
    !worst
  in
  if c.n_unknown = 0 then 0
  else if c.nonlinears = [] then begin
    ignore (solve_into_vnode false);
    1
  end
  else begin
    let iter = ref 0 and converged = ref false in
    while (not !converged) && !iter < opts.newton_max do
      incr iter;
      if solve_into_vnode true < opts.newton_tol then converged := true
    done;
    if not !converged then failwith (Printf.sprintf "oracle: Newton failed at t=%g s" t);
    !iter
  end

let fresh_system c = (Banded.create ~n:c.n_unknown ~bw:c.bandwidth, Array.make c.n_unknown 0.)

(* DC operating point: capacitors open (with a 1e-12 S leak), inductors
   shorted through 1 mOhm. *)
let dc_solve c opts =
  let vnode = Array.make c.n_nodes 0. in
  List.iter (fun (n, f) -> vnode.(n) <- f 0.) c.forced;
  let g_short = 1e3 in
  let assemble () =
    let sys, rhs = fresh_system c in
    List.iter (fun (n1, n2, g) -> stamp c sys rhs vnode n1 n2 g 0.) c.resistors;
    List.iter (fun cc -> stamp c sys rhs vnode cc.n1 cc.n2 g_short 0.) c.inds;
    List.iter
      (fun k -> Array.iter (fun (a, b) -> stamp c sys rhs vnode a b g_short 0.) k.k_branches)
      c.coupled;
    List.iter (fun cc -> stamp c sys rhs vnode cc.n1 cc.n2 1e-12 0.) c.caps;
    List.iter (fun (n1, n2, f) -> stamp c sys rhs vnode n1 n2 0. (f 0.)) c.isources;
    (sys, rhs)
  in
  ignore (newton opts c ~assemble ~vnode ~t:0.);
  vnode

type result = { volts : float array array; (* volts.(node).(step) *) newton_total : int }

let transient (opts : Engine.options) netlist =
  let dt = opts.dt in
  let c = compile netlist in
  let n_steps = Int.max 1 (int_of_float (Float.ceil ((opts.t_stop /. dt) -. 1e-9))) in
  let vnode = dc_solve c opts in
  List.iter
    (fun cc ->
      cc.v_prev <- vnode.(cc.n1) -. vnode.(cc.n2);
      cc.i_prev <- 0.)
    c.caps;
  List.iter
    (fun cc ->
      let dv = vnode.(cc.n1) -. vnode.(cc.n2) in
      cc.v_prev <- dv;
      cc.i_prev <- 1e3 *. dv)
    c.inds;
  List.iter
    (fun k ->
      Array.iteri
        (fun p (a, b) ->
          let dv = vnode.(a) -. vnode.(b) in
          k.v_prev_k.(p) <- dv;
          k.i_prev_k.(p) <- 1e3 *. dv)
        k.k_branches)
    c.coupled;
  let volts = Array.init c.n_nodes (fun _ -> Array.make (n_steps + 1) 0.) in
  let record step = Array.iteri (fun n col -> col.(step) <- vnode.(n)) volts in
  record 0;
  let newton_total = ref 0 in
  for step = 1 to n_steps do
    let t = dt *. float_of_int step in
    List.iter (fun (n, f) -> vnode.(n) <- f t) c.forced;
    let assemble () =
      let sys, rhs = fresh_system c in
      List.iter (fun (n1, n2, g) -> stamp c sys rhs vnode n1 n2 g 0.) c.resistors;
      List.iter
        (fun cc ->
          match opts.integration with
          | Trapezoidal ->
              let g = 2. *. cc.value /. dt in
              stamp c sys rhs vnode cc.n1 cc.n2 g (-.((g *. cc.v_prev) +. cc.i_prev))
          | Backward_euler ->
              let g = cc.value /. dt in
              stamp c sys rhs vnode cc.n1 cc.n2 g (-.(g *. cc.v_prev)))
        c.caps;
      List.iter
        (fun cc ->
          match opts.integration with
          | Trapezoidal ->
              let g = dt /. (2. *. cc.value) in
              stamp c sys rhs vnode cc.n1 cc.n2 g (cc.i_prev +. (g *. cc.v_prev))
          | Backward_euler ->
              let g = dt /. cc.value in
              stamp c sys rhs vnode cc.n1 cc.n2 g cc.i_prev)
        c.inds;
      List.iter
        (fun k ->
          let g, ieq = coupled_companion k opts.integration dt in
          stamp_coupled c sys rhs vnode k g ieq)
        c.coupled;
      List.iter (fun (n1, n2, f) -> stamp c sys rhs vnode n1 n2 0. (f t)) c.isources;
      (sys, rhs)
    in
    newton_total := !newton_total + newton opts c ~assemble ~vnode ~t;
    (* Commit companion states. *)
    List.iter
      (fun cc ->
        let v = vnode.(cc.n1) -. vnode.(cc.n2) in
        let i =
          match opts.integration with
          | Trapezoidal ->
              let g = 2. *. cc.value /. dt in
              (g *. v) -. ((g *. cc.v_prev) +. cc.i_prev)
          | Backward_euler -> cc.value /. dt *. (v -. cc.v_prev)
        in
        cc.v_prev <- v;
        cc.i_prev <- i)
      c.caps;
    List.iter
      (fun cc ->
        let v = vnode.(cc.n1) -. vnode.(cc.n2) in
        let i =
          match opts.integration with
          | Trapezoidal ->
              let g = dt /. (2. *. cc.value) in
              (g *. v) +. cc.i_prev +. (g *. cc.v_prev)
          | Backward_euler -> (dt /. cc.value *. v) +. cc.i_prev
        in
        cc.v_prev <- v;
        cc.i_prev <- i)
      c.inds;
    List.iter
      (fun k ->
        (* The companion coefficients still reference the pre-step state:
           commit currents first, voltages after. *)
        let g, ieq = coupled_companion k opts.integration dt in
        let nb = Array.length k.k_branches in
        let v_new = Array.map (fun (a, b) -> vnode.(a) -. vnode.(b)) k.k_branches in
        for p = 0 to nb - 1 do
          let acc = ref ieq.(p) in
          for q = 0 to nb - 1 do
            acc := !acc +. (g.(p).(q) *. v_new.(q))
          done;
          k.i_prev_k.(p) <- !acc
        done;
        Array.blit v_new 0 k.v_prev_k 0 nb)
      c.coupled;
    record step
  done;
  { volts; newton_total = !newton_total }

let values r node = r.volts.(node)
let newton_total r = r.newton_total
