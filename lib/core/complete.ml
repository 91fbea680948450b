(** "Complete propagation" (paper Table 3, column 3).

    Iterate interprocedural constant propagation and dead-code elimination:
    run the polynomial analysis, fold the branches SCCP proved constant and
    sweep dead code; if anything was removed, reset all CONSTANTS sets to ⊤
    and re-run the propagation on the smaller program.  The paper observed
    that a single round of dead-code elimination always sufficed; the test
    suite checks the same on ours.

    Each re-analysis round prepares the smaller program with
    {!Driver.prepare_reusing}, where a procedure is unchanged when DCE
    left its body alone.  An unchanged procedure copies its call sites
    and direct MOD/REF effects; its IR as well when no callee's MOD
    footprint changed; and its return and site jump functions when, in
    addition, no callee's return jump function changed (main also needs
    every load-time [data] value unchanged, and a member of a cycle of
    several procedures always rebuilds its return jump function).
    Everything else is rebuilt, and every round solves the fixpoint from
    scratch. *)

open Ipcp_frontend

type 'elt generic_outcome = {
  final : 'elt Driver.analysis_result;
      (** analysis of the final (DCE-stable) program *)
  substituted : int;  (** substitution count on the final program *)
  dce_rounds : int;  (** rounds that actually removed code *)
  degraded : Ipcp_support.Budget.reason list;
      (** budget exhaustions hit along the way (iteration budget and the
          final round's propagation); each round is individually sound,
          so stopping early only costs precision *)
}

type outcome = Ipcp_analysis.Const_lattice.t generic_outcome

module Make (A : Ipcp_analysis.Analysis_sig.S) = struct
  module D = Driver.Make (A)
  module Sub = Substitute.Make (A)

  let run ?budget ?(config = Config.polynomial_with_mod) ?(max_rounds = 10)
      (prog : Prog.t) : A.L.t generic_outcome =
      let module Telemetry = Ipcp_telemetry.Telemetry in
      let budget =
        match budget with
        | Some b -> b
        | None -> Config.budget ~label:"complete" config
      in
      let rec loop artifacts prog rounds =
        Telemetry.incr "complete.rounds";
        let t, changed_procs, procs =
          Telemetry.span "complete:round" (fun () ->
              let t = D.solve config artifacts in
              (* fold constant branches per procedure using the seeded SCCP *)
              let changed = Hashtbl.create 16 in
              let procs =
                List.map
                  (fun (proc : Prog.proc) ->
                    let sccp = D.sccp_for t proc.pname in
                    let proc', ch =
                      Ipcp_analysis.Dce.run ~cond_consts:sccp.cond_consts proc
                    in
                    if ch then Hashtbl.replace changed proc.pname ();
                    proc')
                  prog.Prog.procs
              in
              (t, changed, procs))
        in
        if
          Hashtbl.length changed_procs > 0
          && rounds < max_rounds
          && Ipcp_support.Budget.tick budget
        then begin
          let prog' = { prog with Prog.procs } in
          let unchanged name = not (Hashtbl.mem changed_procs name) in
          loop
            (Driver.prepare_reusing ~prev:artifacts ~unchanged prog')
            prog' (rounds + 1)
        end
        else begin
          let _, stats = Sub.apply t in
          Telemetry.add "complete.dce_rounds" rounds;
          let degraded =
            Driver.degraded t
            @
            match Ipcp_support.Budget.exhausted budget with
            | None -> []
            | Some reason -> [ reason ]
          in
          Telemetry.add "complete.degraded" (List.length degraded);
          { final = t; substituted = stats.total; dce_rounds = rounds; degraded }
        end
      in
      loop (Driver.prepare prog) prog 0
end

include Make (Ipcp_analysis.Const_analysis)
