(** The program call graph: a multigraph whose edges carry call sites, with
    Tarjan SCCs for bottom-up/top-down traversal orders. *)

open Ipcp_frontend

type edge = {
  e_caller : string;
  e_callee : string;
  e_site : Prog.call_site;
}

type t = {
  prog : Prog.t;
  nodes : string list;
  edges : edge list;
  out_edges : (string, edge list) Hashtbl.t;
  in_edges : (string, edge list) Hashtbl.t;
  sccs : string list list;  (** reverse topological: callees first *)
  scc_index : (string, int) Hashtbl.t;  (** each node's position in [sccs] *)
}

val build : Prog.t -> t

(** [build_reusing ~prev ~unchanged prog]: {!build}, copying the call
    sites of every [unchanged] procedure from [prev] instead of scanning
    its body (counted in [callgraph.sites_copied]; scans in
    [callgraph.sites_scanned]).  When the procedures are those of [prev],
    in the same order, and every rescanned one calls the same callees in
    the same order, [prev]'s SCCs are kept and only the rescanned
    callers' in-edges are replaced; otherwise Tarjan runs again
    ([callgraph.sccs_computed] counts the SCCs it finds).  [unchanged]
    procedures must be [prev]'s physical values, or equal to them ids
    included: their copied edges carry [prev]'s call-site records. *)
val build_reusing : prev:t -> unchanged:(string -> bool) -> Prog.t -> t

val callees_of : t -> string -> edge list
val callers_of : t -> string -> edge list

(** Callees before callers (members of a cycle in arbitrary order). *)
val bottom_up : t -> string list

val top_down : t -> string list

(** Is the procedure part of a recursive cycle? *)
val in_cycle : t -> string -> bool

val reachable_from_main : t -> string list

val pp : t Fmt.t
