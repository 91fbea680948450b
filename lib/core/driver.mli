(** The four-stage analyzer pipeline of the paper's §4.1, staged into a
    config-independent prefix and a config-dependent suffix:

    {ul
    {- {!prepare} builds the shared artifacts — call graph, MOD summaries
       and the per-program facts each procedure's IR reads — and holds
       the per-procedure IR (CFG/dominators/SSA, built once per MOD
       setting) and return jump functions.  Stage-1/2 bundles are
       memoized per (use_mod × return_jfs) variant and built on demand,
       so repeated solves over the same program share them;}
    {- {!solve} runs only the configuration-dependent stages on top:
       forward jump functions of the configured kind, then the
       interprocedural propagation;}
    {- {!analyze} is the one-shot compatibility wrapper,
       [analyze config prog = solve config (prepare prog)].  Prefer the
       staged pair: it shares artifacts across configurations and is
       what every production path (tables, serve, incr) uses.}}

    The analysis ([Config.analysis]) reaches only the propagation, as
    main's entry seeds ({!Solver.global_seed}); the artifact prefix is
    analysis-independent.

    Artifacts memoize internally and are therefore {b not} safe to share
    across domains; give each worker domain its own (the engine's
    program-per-task split does exactly that). *)

open Ipcp_frontend
open Ipcp_analysis

(** A solved analysis. *)
type t = {
  config : Config.t;
  prog : Prog.t;
  cg : Callgraph.t;
  modref : Modref.t;
  ret_jfs : (string, Jump_function.ret_jf) Hashtbl.t;
  irs : (string, Jump_function.proc_ir) Hashtbl.t;
      (** per-procedure IR (CFG/SSA/symbolic values), reused downstream *)
  site_jfs : Jump_function.site_jf list;
  solution : Solver.result;
  sccps : (string, Sccp.result) Hashtbl.t;
      (** {!sccp_for}'s memo, per procedure.  Only the domain that
          owns the result writes it; {!Ipcp_incr.Incr.update} seeds it
          from the previous version's. *)
  substs : (string, Prog.proc * int) Hashtbl.t;
      (** {!Substitute.apply}'s memo: each procedure's rewritten body and
          substitution count.  {!Ipcp_incr.Incr.update} copies an entry
          together with the procedure's SCCP result. *)
  keep_sccps : bool;
      (** whether {!Substitute.apply} records the SCCP results and
          rewrites it computes in [sccps] and [substs]: false for a solved
          result, which is rendered once, so keeping them would only cost
          the collector; true for an incremental session's, whose next
          update copies them, and for one the certifier checks next. *)
}

(** Config-independent analysis artifacts of one program. *)
type artifacts

(** Build the shared artifacts for a resolved program. *)
val prepare : Prog.t -> artifacts

(** [prepare_reusing ~prev ~unchanged prog] prepares artifacts for a
    rewritten [prog], copying per-procedure artifacts from [prev] for
    every procedure whose body is [unchanged]: its call sites
    ({!Callgraph.build_reusing}, which also keeps [prev]'s SCCs when the
    call structure held) and its direct MOD/REF effects
    ({!Modref.compute_reusing}, which closes again only the SCCs an edit
    reaches); its IR when no callee's MOD footprint changed (SSA sees
    callees only through their call kills); and its return jump function
    and the site jump functions of each kind [prev] built when no
    callee's return jump function changed either and, for the main
    program, every global's load-time [data] value is unchanged (counted
    in [driver.site_jfs_reused] for site jump functions; a member of a
    cycle of several procedures always rebuilds its return jump
    function, whose value depends on the order stage 1 visits the cycle
    in).  The copy checks read the sets of procedures whose MOD footprint
    or return jump function changed, so the copy walk stops where an
    edit's effect on summaries is absorbed, not merely where its
    call-graph reachability ends.  Only the rewritten procedures' bodies
    are walked for the expression-id ceiling.  Nothing is copied when
    the program's global list changed.  The result keeps [prev]'s tables,
    not [prev] itself, so a chain of rounds holds one previous round,
    not all of them.  The one caller is {!Ipcp_incr.Incr.update}, which
    also runs complete propagation's dead-code-elimination rounds;
    [unchanged] procedures must be [prev]'s, ids included (copied call
    sites and IR embed them). *)
val prepare_reusing :
  prev:artifacts -> unchanged:(string -> bool) -> Prog.t -> artifacts

(** The forward jump functions of [name]'s call sites under [config],
    memoized per kind in the stage-1/2 bundle — the same lists {!solve}
    aggregates, exposed so an incremental update can compare them with
    the previous version's.  A list {!prepare_reusing} copied is
    physically [prev]'s list, so the comparison skips it with [==].
    Empty for an intraprocedural configuration or an unknown
    procedure. *)
val site_jfs_for :
  artifacts -> Config.t -> string -> Jump_function.site_jf list

val artifacts_prog : artifacts -> Prog.t

(** One past every expression/statement id of the artifacts' program:
    where an update numbers its freshly parsed procedures from. *)
val expr_ceiling : artifacts -> int

(** The procedure of this name in the artifacts' program, from the table
    {!prepare} builds once: no walk over the program. *)
val find_proc : artifacts -> string -> Prog.proc option

(** Every global's key with its load-time [data] value, sorted by key:
    what the main program's entry VAL map is seeded from.  Read off the
    facts {!prepare} computed: no walk over the program. *)
val global_data : artifacts -> (string * int option) list

(** The return-jump-function oracle of an analysis, if enabled. *)
val oracle : t -> Ssa_value.oracle option

(** Budget reasons of the propagation stage; empty on a precise run.
    A degraded analysis is still sound — pending work was widened to ⊥
    — but may miss constants. *)
val degraded : t -> Ipcp_support.Budget.reason list

(** Run the config-dependent stages (forward jump functions +
    interprocedural propagation) over shared artifacts.  [kept] is
    asked once stage 2 has built every site jump function: a fixpoint
    it returns must be the one propagation would reach on these
    artifacts, and is taken as stage 3's result without propagating
    (no [solver.*] or [jf.eval.*] counters).  The one caller that
    passes it is {!Ipcp_incr.Incr.update}, which returns the previous
    version's fixpoint when nothing propagation reads changed. *)
val solve : ?kept:(unit -> Solver.result option) -> Config.t -> artifacts -> t

(** Run the full pipeline on a resolved program:
    [solve config (prepare prog)].

    {b Deprecated} in spirit: every production path should use the
    staged {!prepare} + {!solve} pair (artifact sharing, reuse across
    configurations, incremental updates all hang off [artifacts]).  This
    wrapper remains for one-shot tools and tests. *)
val analyze : Config.t -> Prog.t -> t

(** CONSTANTS(p) for every procedure, in program order. *)
val constants : t -> (string * (Prog.param * int) list) list

(** Total number of (procedure, parameter) constant facts. *)
val constants_count : t -> int

(** Entry-value environment of a procedure (given by its IR), as
    consumed by SCCP. *)
val entry_env : t -> Jump_function.proc_ir -> Prog.var -> int option

(** SCCP for one procedure, seeded with the discovered entry facts: the
    result's memoized one ([sccps]) when there is one, otherwise a fresh
    run under a per-call budget built from the configuration, recorded in
    the memo unless [record] is false.  Worker domains pass
    [~record:false]: only the domain that owns the result writes its
    memo. *)
val sccp_for : ?record:bool -> t -> string -> Sccp.result

val pp_constants : t Fmt.t
