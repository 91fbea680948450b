(** The CLI's job bodies, factored to render into strings.

    Both the [ipcp] subcommands and the serving layer run jobs through
    this module, so "server responses are byte-identical to direct CLI
    output" is structural — there is exactly one renderer per job, and
    the CLI merely prints what a server response would carry.  Renderers
    write through buffer-backed {!Format} formatters, which share the
    standard formatter's default geometry, so line breaks agree with
    direct terminal output. *)

open Ipcp_frontend
open Ipcp_core

(** Exit codes shared by the CLI and the [code] field of serve response
    frames. *)
val exit_input : int
(** 3: unreadable file, diagnostics in the program, lint violations,
    broken output pipe. *)

val exit_internal : int
(** 4: a bug in ipcp itself, including a failed certification. *)

(** One executed job: rendered standard output, rendered standard error,
    and the exit code a direct CLI run would return. *)
type outcome = { out : string; err : string; code : int }

(** Load a source file in recovery mode.  [Ok (source, prog)] also
    returns the raw text; [Error outcome] carries the CLI-rendered error
    report and [exit_input]. *)
val load : string -> (string * Prog.t, outcome) result

(** The job bodies for one analysis; the toplevel values are
    [Of (Const_analysis)], and {!Copy} serves [--analysis copy]. *)
module Of (A : Ipcp_analysis.Analysis_sig.S) : sig
  (** The [analyze] job.  [?solved] supplies an already-solved result
      (the incremental re-analysis path, or a served solution); it takes
      precedence over [?complete] and renders through the same pipeline,
      so the output stays byte-identical to a from-scratch analyze of the
      same source.
      [?substitute_out] also writes the constant-substituted source to a
      file (CLI only; raises [Sys_error] like any file write). *)
  val analyze :
    ?verbose:bool ->
    ?complete:bool ->
    ?certify:bool ->
    ?substitute_out:string ->
    ?solved:A.L.t Driver.analysis_result ->
    config:Config.t ->
    jobs:int ->
    Prog.t ->
    outcome

  (** Render one certification verdict exactly as the CLI does
      ([--- certified \[label\]] on stdout, the violation report on
      stderr with [exit_internal]). *)
  val certification :
    ?fuel:int ->
    ?input:int list ->
    label:string ->
    A.L.t Driver.analysis_result ->
    outcome
end

(** The copy-propagation jobs. *)
module Copy : sig
  val analyze :
    ?verbose:bool ->
    ?complete:bool ->
    ?certify:bool ->
    ?substitute_out:string ->
    ?solved:Ipcp_analysis.Copy_analysis.L.t Driver.analysis_result ->
    config:Config.t ->
    jobs:int ->
    Prog.t ->
    outcome

  val certification :
    ?fuel:int ->
    ?input:int list ->
    label:string ->
    Ipcp_analysis.Copy_analysis.L.t Driver.analysis_result ->
    outcome
end

(** The [tables] job: Tables 1–3 over the bundled suite (plus the
    subsumption Table 4 under [`Copy]), optionally certifying every
    entry afterwards. *)
val tables :
  ?analysis:Config.analysis ->
  ?certify:bool ->
  ?max_steps:int ->
  ?deadline_ms:int ->
  jobs:int ->
  unit ->
  outcome

(** {1 The constant-propagation jobs} *)

val analyze :
  ?verbose:bool ->
  ?complete:bool ->
  ?certify:bool ->
  ?substitute_out:string ->
  ?solved:Driver.t ->
  config:Config.t ->
  jobs:int ->
  Prog.t ->
  outcome

val certification :
  ?fuel:int -> ?input:int list -> label:string -> Driver.t -> outcome
