(* Sizing a 64-bit global bus.

   The motivating workload of the paper's introduction: long, wide global
   wires driven by strong buffers.  For one bus bit at each candidate wire
   width we ask: which driver size first meets a far-end timing budget, and
   does that operating point need the two-ramp (inductive) treatment or is
   the classic single Ceff fine?

   Run with:  dune exec examples/bus_timing.exe *)
open Rlc_ceff

let ps = Rlc_num.Units.in_ps
let tech = Rlc_devices.Tech.c018

let far_delay_of size line cl =
  let cell =
    match Rlc_liberty.Characterize.cell_res tech ~size with
    | Ok c -> c
    | Error e -> failwith (Rlc_errors.Error.message e)
  in
  let model =
    Driver_model.model ~cell ~edge:Rlc_waveform.Measure.Rising
      ~input_slew:(Rlc_num.Units.ps 100.) ~line ~cl ()
  in
  let t50, _ =
    Reference.replay_far ~dt:0.5e-12 ~vdd:tech.Rlc_devices.Tech.vdd ~pwl:model.Driver_model.pwl
      ~line ~cl ()
  in
  (model, t50)

let () =
  let length_mm = 6. in
  let budget = Rlc_num.Units.ps 140. in
  let cl = 30e-15 in
  Format.printf "64-bit bus, %g mm route, far-end budget %.0f ps, CL = %.0f fF@.@." length_mm
    (ps budget) (Rlc_num.Units.in_ff cl);
  Format.printf "%8s %8s %10s %12s %10s@." "width" "driver" "far delay" "vs budget" "regime";
  List.iter
    (fun width_um ->
      let geom = Rlc_parasitics.Extract.geometry ~length_mm ~width_um in
      let line = Rlc_parasitics.Extract.line_of geom in
      let rec first_fit = function
        | [] -> None
        | size :: rest ->
            let model, far = far_delay_of size line cl in
            if far <= budget then Some (size, model, far) else first_fit rest
      in
      match first_fit [ 25.; 50.; 75.; 100.; 125. ] with
      | Some (size, model, far) ->
          Format.printf "%6.1fum %7.0fX %8.1f ps %10.1f ps %10s@." width_um size (ps far)
            (ps (budget -. far))
            (if model.Driver_model.screen.Screen.significant then "inductive" else "RC")
      | None -> Format.printf "%6.1fum %8s %10s@." width_um "-" "no driver meets budget")
    [ 0.8; 1.2; 1.6; 2.0; 2.5; 3.0 ];
  Format.printf
    "@.Wider wires lower R and raise the inductive quality of the line: the driver@\n\
     that meets timing increasingly lands in the regime where single-Ceff timing@\n\
     would misreport both delay and slew (the paper's Table 1 columns).@."
