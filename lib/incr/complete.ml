(** "Complete propagation" (paper Table 3, column 3) as one {!Incr}
    session whose versions are its rounds; the interface has the reuse
    argument. *)

open Ipcp_frontend
open Ipcp_core
module Telemetry = Ipcp_telemetry.Telemetry

type outcome = {
  final : Driver.t;
  substituted : int;
  dce_rounds : int;
  degraded : Ipcp_support.Budget.reason list;
      (** each round is individually sound, so stopping early only costs
          precision *)
}

(* Code still dying after this many rounds is left in. *)
let max_rounds = 10

(* One round's DCE over session [s].  [last] maps each procedure the
   previous round's DCE left alone to the body and SCCP result it
   read (an SCCP result the update copied is found in the memo, not
   run again); the returned table is this round's. *)
let dce_round ~last s =
  let t = Incr.result s in
  let left_alone = Hashtbl.create 64 and changed = ref false in
  let procs =
    List.map
      (fun (p : Prog.proc) ->
        let sccp = Driver.sccp_for t p.pname in
        let p' =
          match Hashtbl.find_opt last p.pname with
          | Some (p0, r0) when p0 == p && r0 == sccp -> p
          | Some _ | None ->
            let p', ch =
              Ipcp_analysis.Dce.run ~cond_consts:sccp.cond_consts p
            in
            if ch then p' else p
        in
        if p' == p then Hashtbl.replace left_alone p.pname (p, sccp)
        else changed := true;
        p')
      (Incr.prog s).Prog.procs
  in
  (procs, !changed, left_alone)

(* The rounds from the session [first ()] returns, inside round 1's
   span. *)
let run_from ?budget config first =
  let budget = Option.value budget ~default:(Config.budget config) in
  let rec loop rounds ~last next =
    Telemetry.incr "complete.rounds";
    let s, (procs, changed, left_alone) =
      Telemetry.span "complete:round" (fun () ->
          let s = next () in
          (s, dce_round ~last s))
    in
    if changed && rounds < max_rounds && Ipcp_support.Budget.tick budget
    then
      let prog = { (Incr.prog s) with Prog.procs } in
      loop (rounds + 1) ~last:left_alone (fun () ->
          fst (Incr.update ~prev:s prog))
    else begin
      let t = Incr.result s in
      let _, stats = Substitute.apply t in
      Telemetry.add "complete.dce_rounds" rounds;
      let degraded =
        Driver.degraded t
        @ Option.to_list (Ipcp_support.Budget.exhausted budget)
      in
      Telemetry.add "complete.degraded" (List.length degraded);
      { final = t; substituted = stats.total; dce_rounds = rounds; degraded }
    end
  in
  loop 0 ~last:(Hashtbl.create 0) first

let run ?budget ?(config = Config.polynomial_with_mod) prog =
  run_from ?budget config (fun () -> Incr.start config prog)

let continue ?budget s = run_from ?budget (Incr.config s) (fun () -> s)
