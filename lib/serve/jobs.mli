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

(** The [analyze] job.  [?solved] supplies an already-solved result (a
    served solution); it takes precedence over [?complete].  [?session]
    supplies an analyzed incremental session of [prog] (the [--against]
    path), from which [?complete] continues its rounds.  Both render
    through the same pipeline, so the output stays byte-identical to a
    from-scratch analyze of the same source.  [?substitute_out] also
    writes the constant-substituted source to a file (CLI only; raises
    [Sys_error] like any file write). *)
val analyze :
  ?verbose:bool ->
  ?complete:bool ->
  ?certify:bool ->
  ?substitute_out:string ->
  ?solved:Driver.t ->
  ?session:Ipcp_incr.Incr.session ->
  config:Config.t ->
  jobs:int ->
  Prog.t ->
  outcome

(** Render one certification verdict exactly as the CLI does
    ([--- certified \[label\]] on stdout, the violation report on stderr
    with [exit_internal]). *)
val certification :
  ?fuel:int -> ?input:int list -> label:string -> Driver.t -> outcome

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
