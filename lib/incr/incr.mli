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
    again only upward from what changed.  Propagation keeps the previous
    fixpoint when every procedure keeps its arity and its site
    jump-function list and the load-time [data] map is unchanged (a
    copied site list needs no comparison), and solves the whole program
    again otherwise.  What still visits every procedure is a comparison
    with its predecessor and a copy of its entries.  See the
    implementation header and DESIGN.md §10 for the copy rules, the
    fallbacks and the measured cost split. *)

open Ipcp_frontend
open Ipcp_core

type stats = {
  total_procs : int;
  changed_procs : int;
      (** present in both versions and not grafted: a structural
          change.  An update to an α-renamed version therefore reports
          every renamed procedure as changed, and keeps the previous
          fixpoint: jump functions name formals by position and globals
          by storage key, so none of them differs. *)
  grafted_procs : int;
      (** structurally equal to their predecessor
          ({!Ipcp_frontend.Prog.equal_proc}), physically reused *)
  cone_size : int;
      (** procedures solved again: 0 when the previous fixpoint was kept,
          else [total_procs] *)
  procs_reused : int;
      (** procedures whose VAL map is the kept fixpoint's:
          [total_procs - cone_size] *)
  procs_resolved : int;  (** = [cone_size] *)
  full_resolve : bool;
      (** the whole-program fallback was taken: nothing was copied *)
}

val pp_stats : stats Fmt.t

(** Incremental sessions for one analysis. *)
module Make (A : Ipcp_analysis.Analysis_sig.S) : sig
  type session

  val start : Config.t -> Prog.t -> session
  val start_prepared : Config.t -> Driver.artifacts -> session
  val update : prev:session -> Prog.t -> session * stats
  val result : session -> A.L.t Driver.analysis_result
  val config : session -> Config.t
  val prog : session -> Prog.t
end

(** {1 The constant-propagation instantiation} *)

(** One analyzed program version, ready to be updated from. *)
type session = Make(Ipcp_analysis.Const_analysis).session

(** [start config prog] is [start_prepared config (Driver.prepare prog)]. *)
val start : Config.t -> Prog.t -> session

(** The first version of a session, solved over artifacts already
    prepared for it (which the session then shares). *)
val start_prepared : Config.t -> Driver.artifacts -> session

(** Analyze the next program version against [prev] (same
    configuration).  The returned session replaces [prev]; the stats
    report whether the previous fixpoint was kept, and what was
    reused. *)
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
