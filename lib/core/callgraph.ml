(** The program call graph.

    Nodes are procedures; each edge carries its call site (a [call]
    statement or a function call inside an expression).  The graph is a
    multigraph — two calls from [p] to [q] are two edges, each with its own
    jump functions.  Tarjan's algorithm provides the strongly-connected
    components in reverse topological order, which is the bottom-up order
    used to build return jump functions and the MOD/REF fixpoint
    (FORTRAN 77 has no recursion, but MiniFort allows it, and every consumer
    of this module treats members of a non-trivial SCC conservatively). *)

open Ipcp_frontend

type edge = {
  e_caller : string;
  e_callee : string;
  e_site : Prog.call_site;
}

type t = {
  prog : Prog.t;
  nodes : string list;  (** in program order *)
  edges : edge list;
  out_edges : (string, edge list) Hashtbl.t;
  in_edges : (string, edge list) Hashtbl.t;
  sccs : string list list;  (** reverse topological: callees before callers *)
  scc_index : (string, int) Hashtbl.t;  (** each node's position in [sccs] *)
}

(* A procedure's out-edges in the order the tables hold them: reverse
   site order. *)
let site_edges (p : Prog.proc) : edge list =
  List.rev_map
    (fun (cs : Prog.call_site) ->
      { e_caller = p.pname; e_callee = cs.cs_callee; e_site = cs })
    (Prog.call_sites p)

(* Tarjan SCC over the out-edge tables; the result comes out in reverse
   topological order. *)
let tarjan nodes out_edges : string list list =
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun e ->
        let w = e.e_callee in
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (Hashtbl.find out_edges v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          Hashtbl.remove on_stack w;
          if w = v then w :: acc else pop (w :: acc)
      in
      sccs := pop [] :: !sccs
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) nodes;
  (* !sccs has later-finished (callers) first; reverse for bottom-up
     order *)
  List.rev !sccs

let same_callees (a : edge list) (b : edge list) =
  List.equal (fun x y -> String.equal x.e_callee y.e_callee) a b

(* [ins] (a callee's in-edges) with [caller]'s entries replaced, in
   order, by [news]: the caller's new edges into that callee. *)
let patch_in_edges ~caller ins news =
  let rec go acc ins news =
    match (ins, news) with
    | e :: rest, n :: news' when String.equal e.e_caller caller ->
      go (n :: acc) rest news'
    | e :: rest, _ -> go (e :: acc) rest news
    | [], _ -> List.rev acc
  in
  go [] ins news

let build_with ?reuse (prog : Prog.t) : t =
  let nodes = List.map (fun (p : Prog.proc) -> p.pname) prog.procs in
  let out_edges = Hashtbl.create 16 in
  let scanned = ref [] and copied = ref 0 in
  List.iter
    (fun (p : Prog.proc) ->
      let out =
        match
          match reuse with
          | Some (prev, unchanged) when unchanged p.pname ->
            Hashtbl.find_opt prev.out_edges p.pname
          | Some _ | None -> None
        with
        | Some out ->
          incr copied;
          out
        | None ->
          let out = site_edges p in
          scanned := (p.pname, out) :: !scanned;
          out
      in
      Hashtbl.replace out_edges p.pname out)
    prog.procs;
  Ipcp_telemetry.Telemetry.add "callgraph.sites_copied" !copied;
  Ipcp_telemetry.Telemetry.add "callgraph.sites_scanned" (List.length !scanned);
  let edges =
    List.concat_map (fun n -> List.rev (Hashtbl.find out_edges n)) nodes
  in
  (* The previous graph's shape holds when the procedures are the same,
     in the same order, and every rescanned one calls the same callees in
     the same order: its SCCs are then the ones Tarjan would find again,
     and its in-edge lists need only the rescanned callers' entries
     replaced. *)
  let kept =
    match reuse with
    | Some (prev, _)
      when List.equal String.equal nodes prev.nodes
           && List.for_all
                (fun (name, out) ->
                  same_callees out (Hashtbl.find prev.out_edges name))
                !scanned ->
      Some prev
    | Some _ | None -> None
  in
  match kept with
  | Some prev ->
    let in_edges = Hashtbl.copy prev.in_edges in
    List.iter
      (fun (caller, out) ->
        (* the caller's new edges by callee, each list in [out]'s order *)
        let by_callee = Hashtbl.create 8 in
        List.iter
          (fun e ->
            let earlier = Hashtbl.find_opt by_callee e.e_callee in
            Hashtbl.replace by_callee e.e_callee
              (e :: Option.value ~default:[] earlier))
          (List.rev out);
        Hashtbl.iter
          (fun callee news ->
            Hashtbl.replace in_edges callee
              (patch_in_edges ~caller (Hashtbl.find in_edges callee) news))
          by_callee)
      !scanned;
    {
      prog;
      nodes;
      edges;
      out_edges;
      in_edges;
      sccs = prev.sccs;
      scc_index = prev.scc_index;
    }
  | None ->
    let in_edges = Hashtbl.create 16 in
    List.iter (fun n -> Hashtbl.replace in_edges n []) nodes;
    List.iter
      (fun e ->
        Hashtbl.replace in_edges e.e_callee
          (e :: Hashtbl.find in_edges e.e_callee))
      edges;
    let sccs = tarjan nodes out_edges in
    Ipcp_telemetry.Telemetry.add "callgraph.sccs_computed" (List.length sccs);
    let scc_index = Hashtbl.create 16 in
    List.iteri
      (fun i scc -> List.iter (fun n -> Hashtbl.replace scc_index n i) scc)
      sccs;
    { prog; nodes; edges; out_edges; in_edges; sccs; scc_index }

let build prog = build_with prog

let build_reusing ~prev ~unchanged prog =
  build_with ~reuse:(prev, unchanged) prog

let callees_of t name = Hashtbl.find_opt t.out_edges name |> Option.value ~default:[]

let callers_of t name = Hashtbl.find_opt t.in_edges name |> Option.value ~default:[]

(** Bottom-up order over procedures (callees before callers; members of a
    cycle in arbitrary relative order). *)
let bottom_up t = List.concat t.sccs

(** Top-down order (callers before callees). *)
let top_down t = List.rev (bottom_up t)

(** Is [name] part of a recursive cycle (self-loop or larger SCC)? *)
let in_cycle t name =
  List.exists
    (fun scc ->
      match scc with
      | [ single ] ->
        single = name
        && List.exists (fun e -> e.e_callee = name) (callees_of t name)
      | many -> List.mem name many && List.length many > 1)
    t.sccs

(** Procedures reachable from the main program. *)
let reachable_from_main t =
  let seen = Hashtbl.create 16 in
  let rec go n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      List.iter (fun e -> go e.e_callee) (callees_of t n)
    end
  in
  go t.prog.main;
  List.filter (Hashtbl.mem seen) t.nodes

let pp ppf t =
  List.iter
    (fun n ->
      Fmt.pf ppf "%s -> %a@." n
        (Fmt.list ~sep:(Fmt.any ", ") Fmt.string)
        (List.map (fun e -> e.e_callee) (callees_of t n)))
    t.nodes
