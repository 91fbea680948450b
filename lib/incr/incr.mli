(** Incremental re-analysis sessions: analyze a program version once,
    then re-analyze successive edited versions — with output
    {b byte-identical} to a from-scratch {!Ipcp_core.Driver.analyze} of
    the same source (the certifier and the [fuzz --delta] gate enforce
    this).

    A procedure structurally equal to its predecessor is grafted (the
    previous physical value is kept), and its call sites, direct MOD/REF
    effects, IR, return and site jump functions are copied via
    {!Ipcp_core.Driver.prepare_reusing}; its SCCP result and
    substitution are copied from the previous version; MOD/REF is closed
    again only upward from what changed.  The solution is reused via
    {!Ipcp_core.Solver.run_seeded}: only the cone below the call sites
    whose jump functions changed is solved again, and a copied site list
    needs no comparison.  What still visits every procedure is a
    comparison with its predecessor and a copy of its entries.  See the
    implementation header and DESIGN.md §10 for the copy and closure
    rules, the fallbacks and the measured cost split. *)

open Ipcp_frontend
open Ipcp_core

type stats = {
  total_procs : int;
  changed_procs : int;
      (** present in both versions and not grafted: a structural
          change.  An update to an α-renamed version therefore reports
          every renamed procedure as changed, with an empty cone: jump
          functions name formals by position and globals by storage
          key, so none of them differs. *)
  grafted_procs : int;
      (** structurally equal to their predecessor
          ({!Ipcp_frontend.Prog.equal_proc}), physically reused *)
  cone_size : int;  (** dirty procedures re-solved *)
  procs_reused : int;  (** solution maps seeded from the previous fixpoint *)
  procs_resolved : int;  (** = [cone_size] *)
  full_resolve : bool;  (** whole-program fallback was taken *)
}

val pp_stats : stats Fmt.t

(** Incremental sessions for one analysis. *)
module Make (A : Ipcp_analysis.Analysis_sig.S) : sig
  type session

  val start : Config.t -> Prog.t -> session
  val update : prev:session -> Prog.t -> session * stats
  val result : session -> A.L.t Driver.analysis_result
  val config : session -> Config.t
  val prog : session -> Prog.t
end

(** {1 The constant-propagation instantiation} *)

(** One analyzed program version, ready to be updated from. *)
type session = Make(Ipcp_analysis.Const_analysis).session

val start : Config.t -> Prog.t -> session

(** Analyze the next program version against [prev] (same
    configuration).  The returned session replaces [prev]; the stats
    report cone size and reuse. *)
val update : prev:session -> Prog.t -> session * stats

(** The full analysis result of this version — same value a from-scratch
    [Driver.analyze] would produce.  Its SCCP and substitution memos
    start with the previous version's entries that still hold;
    rendering it fills in the rest, and the next update copies from
    there. *)
val result : session -> Driver.t

val config : session -> Config.t

(** The analyzed program of this version.  Procedures unchanged since
    the previous version are the previous version's physical values
    (grafting), so re-parsing artifacts like expression ids may differ
    from a fresh parse — semantics and printed output do not. *)
val prog : session -> Prog.t
