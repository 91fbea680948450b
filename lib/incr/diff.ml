(** Call-graph diff between two program versions.

    Procedures are matched by name; a procedure present in both versions
    counts as changed when its {e semantic} hash differs ({!Hashing}),
    so α-renames and unit reordering produce an empty diff.  Edges are
    compared as deduplicated (caller, callee) name pairs — the
    call-multigraph's site multiplicity is a property of the caller's
    body and already covered by the caller's hash. *)

open Ipcp_frontend
open Ipcp_core

type t = {
  added_procs : string list;
  removed_procs : string list;
  changed_procs : string list;
      (** present in both versions, different semantic hash *)
  added_edges : (string * string) list;  (** (caller, callee) pairs *)
  removed_edges : (string * string) list;
}

let is_empty d =
  d.added_procs = [] && d.removed_procs = [] && d.changed_procs = []
  && d.added_edges = [] && d.removed_edges = []

let edge_pairs (cg : Callgraph.t) : (string * string) list =
  List.sort_uniq compare
    (List.map (fun (e : Callgraph.edge) -> (e.e_caller, e.e_callee)) cg.edges)

let compute_with ~(old_cg : Callgraph.t) ~(new_cg : Callgraph.t)
    ~(old_sem : (string, string) Hashtbl.t)
    ~(new_sem : (string, string) Hashtbl.t) : t =
  let names tbl = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
  let old_names = names old_sem and new_names = names new_sem in
  let added_procs =
    List.filter (fun n -> not (Hashtbl.mem old_sem n)) new_names
  in
  let removed_procs =
    List.filter (fun n -> not (Hashtbl.mem new_sem n)) old_names
  in
  let changed_procs =
    List.filter
      (fun n ->
        match Hashtbl.find_opt new_sem n with
        | Some h -> h <> Hashtbl.find old_sem n
        | None -> false)
      old_names
  in
  let old_edges = edge_pairs old_cg and new_edges = edge_pairs new_cg in
  (* [xs] without the members of [ys], in [xs]'s order *)
  let minus xs ys =
    let tbl = Hashtbl.create 64 in
    List.iter (fun y -> Hashtbl.replace tbl y ()) ys;
    List.filter (fun x -> not (Hashtbl.mem tbl x)) xs
  in
  let added_edges = minus new_edges old_edges in
  let removed_edges = minus old_edges new_edges in
  { added_procs; removed_procs; changed_procs; added_edges; removed_edges }

let compute (old_prog : Prog.t) (new_prog : Prog.t) : t =
  compute_with
    ~old_cg:(Callgraph.build old_prog)
    ~new_cg:(Callgraph.build new_prog)
    ~old_sem:(Hashing.table Hashing.Semantic old_prog)
    ~new_sem:(Hashing.table Hashing.Semantic new_prog)

let pp ppf (d : t) =
  let plist name l =
    if l <> [] then
      Fmt.pf ppf "%s: %a@." name Fmt.(list ~sep:(any ", ") string) l
  in
  let elist name l =
    if l <> [] then
      Fmt.pf ppf "%s: %a@." name
        Fmt.(
          list ~sep:(any ", ") (fun ppf (a, b) -> Fmt.pf ppf "%s->%s" a b))
        l
  in
  if is_empty d then Fmt.pf ppf "empty@."
  else begin
    plist "added procs" d.added_procs;
    plist "removed procs" d.removed_procs;
    plist "changed procs" d.changed_procs;
    elist "added edges" d.added_edges;
    elist "removed edges" d.removed_edges
  end
