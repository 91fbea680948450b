(** Analyzer configuration — the experimental axes of the paper's Tables 2
    and 3. *)

(** Which analysis runs under the configuration: the paper's constant
    propagation, or copy propagation (for the subsumption experiment).
    Both run one solver over {!Ipcp_analysis.Copy_lattice}, and the
    choice decides only what an uninitialized global holds on entry to
    main ({!Solver.global_seed}). *)
type analysis = [ `Const | `Copy ]

(** Stable lower-case name: ["const"] / ["copy"] — the CLI and serve
    dispatch token. *)
val analysis_name : analysis -> string

val analysis_of_string : string -> analysis option

(** The record type is exposed for pattern matching and pretty-printing
    but is {b internal} as a constructor: build configurations with
    {!make} (or the presets below), never with record literals — new axes
    may be added and [make] keeps call sites stable. *)
type t = {
  analysis : analysis;  (** main's entry seeds: constant or copy propagation *)
  kind : Jump_function.kind;  (** which forward jump function to build *)
  return_jfs : bool;
  use_mod : bool;  (** MOD summaries vs. worst-case call kills *)
  interprocedural : bool;  (** [false]: the intraprocedural baseline *)
  max_steps : int option;  (** per-pass step budget (worklist ticks) *)
  deadline_ms : int option;  (** per-pass wall-clock budget *)
}

(** [make ~kind ()] builds a configuration; the optional axes default to
    the paper's recommended setup (return jump functions on, MOD
    summaries on, interprocedural propagation on) with no resource
    limits. *)
val make :
  ?analysis:analysis ->
  kind:Jump_function.kind ->
  ?return_jfs:bool ->
  ?use_mod:bool ->
  ?interprocedural:bool ->
  ?max_steps:int ->
  ?deadline_ms:int ->
  unit ->
  t

(** The same configuration run under a different analysis. *)
val with_analysis : analysis -> t -> t

(** Replace the resource axes (absent arguments clear the limits). *)
val with_budget : ?max_steps:int -> ?deadline_ms:int -> t -> t

(** Fresh per-pass budget for this configuration.  Every pass creates
    its own, so budget state never crosses domain boundaries and
    parallel runs stay deterministic. *)
val budget : t -> Ipcp_support.Budget.t

val equal : t -> t -> bool

(** Pass-through + return JFs + MOD: the paper's recommended setup. *)
val default : t

(** The six configurations of Table 2, with column labels. *)
val table2_configs : (string * t) list

val polynomial_no_mod : t
val polynomial_with_mod : t
val intraprocedural_only : t

val pp : t Fmt.t

(** [pp] rendered to a string, e.g. ["polynomial+ret+mod"]. *)
val to_string : t -> string
