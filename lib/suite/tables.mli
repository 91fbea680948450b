(** Regeneration harness for the paper's Tables 2 and 3: the substitution
    counts of every analyzer configuration on every suite program.

    A program's two rows solve over one {!Ipcp_core.Driver.prepare} — its
    call graph, MOD summaries and IR are built once for every cell — and
    each distinct configuration is solved once: Table 2's polynomial+ret
    cell is also Table 3's with-MOD cell, and complete propagation
    continues the session that solved it.  [?jobs] fans programs across
    worker domains with deterministic (input-order) results, so the
    printed tables are byte-identical for every [jobs]. *)

type table2_row = {
  t2_name : string;
  ret_poly : int;
  ret_pass : int;
  ret_intra : int;
  ret_lit : int;
  noret_poly : int;
  noret_pass : int;
}

type table3_row = {
  t3_name : string;
  poly_no_mod : int;
  poly_mod : int;
  complete : int;
  intra_only : int;
}

(** The subsumption comparison (Table 4, copy mode only): facts found
    by constant propagation vs by copy propagation under the
    polynomial+MOD configuration.  Copy propagation subsumes constant
    propagation — its constant facts match and its pure copy facts come
    on top. *)
type table4_row = {
  t4_name : string;
  t4_const : int;  (** CONSTANTS facts under constant propagation *)
  t4_copy_const : int;  (** constant facts under copy propagation *)
  t4_copies : int;  (** additional pure copy facts (Copy bindings) *)
}

(** A program's Table 2 and Table 3 rows, and under [`Copy] its Table 4
    row, from one {!Ipcp_core.Driver.prepare}.  [?analysis] (default
    [`Const]) selects the analysis the counts run under; Table 4's copy
    columns are read off the polynomial+MOD cell's solve.
    [?max_steps]/[?deadline_ms] bound every analysis pass of the rows
    (see {!Ipcp_core.Config.with_budget}); an exhausted pass degrades
    soundly, so a generous budget reproduces the unbudgeted counts
    exactly. *)
val rows :
  ?analysis:Ipcp_core.Config.analysis ->
  ?max_steps:int ->
  ?deadline_ms:int ->
  Registry.entry ->
  table2_row * table3_row * table4_row option

(** Tables 2 and 3 (and 4 under [`Copy]): {!rows} of every program. *)
val table23 :
  ?analysis:Ipcp_core.Config.analysis ->
  ?jobs:int ->
  ?max_steps:int ->
  ?deadline_ms:int ->
  unit ->
  (table2_row * table3_row * table4_row option) list

val pp_table2 : table2_row list Fmt.t
val pp_table3 : table3_row list Fmt.t
val pp_table4 : table4_row list Fmt.t

(** Tables 1, 2 and 3 (plus Table 4 under [`Copy]), formatted like the
    paper's evaluation section. *)
val pp_all :
  ?analysis:Ipcp_core.Config.analysis ->
  ?jobs:int ->
  ?max_steps:int ->
  ?deadline_ms:int ->
  unit Fmt.t
