open Ipcp_support

(* Span tree node.  Children and per-call durations are stored newest-first
   and reversed in snapshots/exports; [n_index] finds a child by name
   without scanning them (a node may have a child per procedure). *)
type node = {
  n_name : string;
  mutable n_ns : int;
  mutable n_calls : int;
  mutable n_durations : int list;
  mutable n_children : node list;
  mutable n_index : (string, node) Hashtbl.t option;  (** from the first child *)
}

let make_node name =
  {
    n_name = name;
    n_ns = 0;
    n_calls = 0;
    n_durations = [];
    n_children = [];
    n_index = None;
  }

type t = {
  clock : unit -> int;
  root : node;
  mutable stack : node list;  (** innermost first; the root is the base *)
  counters_tbl : (string, int ref) Hashtbl.t;
  dists_tbl : (string, int list ref) Hashtbl.t;  (** values newest-first *)
  gauges_tbl : (string, int ref) Hashtbl.t;  (** point-in-time levels *)
}

let default_clock () = Int64.to_int (Monotonic_clock.now ())

let create ?(clock = default_clock) () =
  let root = make_node "<root>" in
  {
    clock;
    root;
    stack = [ root ];
    counters_tbl = Hashtbl.create 32;
    dists_tbl = Hashtbl.create 16;
    gauges_tbl = Hashtbl.create 8;
  }

(* ------------------------------------------------------------------ *)
(* The current sink.

   Domain-local, not global: a collector installed in one domain must not
   be visible to (or mutated by) worker domains — each worker installs its
   own collector and the pool merges them into the parent's after the
   workers have joined (see {!merge}).  A freshly spawned domain therefore
   always starts with no sink. *)

let current_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let current () = Domain.DLS.get current_key

let enabled () = Option.is_some (current ())

let with_reporter t f =
  let saved = current () in
  Domain.DLS.set current_key (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set current_key saved) f

(* ------------------------------------------------------------------ *)
(* Recording.                                                          *)

let child_named parent name =
  let index =
    match parent.n_index with
    | Some index -> index
    | None ->
      let index = Hashtbl.create 8 in
      parent.n_index <- Some index;
      index
  in
  match Hashtbl.find_opt index name with
  | Some c -> c
  | None ->
    let c = make_node name in
    parent.n_children <- c :: parent.n_children;
    Hashtbl.replace index name c;
    c

let span name f =
  match current () with
  | None -> f ()
  | Some t ->
    let parent = List.hd t.stack in
    let node = child_named parent name in
    t.stack <- node :: t.stack;
    let t0 = t.clock () in
    Fun.protect
      ~finally:(fun () ->
        let dt = t.clock () - t0 in
        node.n_ns <- node.n_ns + dt;
        node.n_calls <- node.n_calls + 1;
        node.n_durations <- dt :: node.n_durations;
        t.stack <- List.tl t.stack)
      f

let add name v =
  match current () with
  | None -> ()
  | Some t -> (
    match Hashtbl.find_opt t.counters_tbl name with
    | Some r -> r := !r + v
    | None -> Hashtbl.replace t.counters_tbl name (ref v))

let incr name = add name 1

let observe name v =
  match current () with
  | None -> ()
  | Some t -> (
    match Hashtbl.find_opt t.dists_tbl name with
    | Some r -> r := v :: !r
    | None -> Hashtbl.replace t.dists_tbl name (ref [ v ]))

let set_gauge name v =
  match current () with
  | None -> ()
  | Some t -> (
    match Hashtbl.find_opt t.gauges_tbl name with
    | Some r -> r := v
    | None -> Hashtbl.replace t.gauges_tbl name (ref v))

(* ------------------------------------------------------------------ *)
(* Merging.                                                            *)

(* Fold one collector into another.  The intended discipline makes this
   race-free without locks: each worker domain records into its own
   collector, and the pool calls [merge] from the parent domain only after
   Domain.join — so no collector is ever written concurrently. *)
let merge ?under ~into src =
  let target =
    match under with
    | None -> into.root
    | Some name -> child_named into.root name
  in
  let rec merge_node parent n =
    let c = child_named parent n.n_name in
    c.n_ns <- c.n_ns + n.n_ns;
    c.n_calls <- c.n_calls + n.n_calls;
    c.n_durations <- n.n_durations @ c.n_durations;
    List.iter (merge_node c) (List.rev n.n_children)
  in
  List.iter (merge_node target) (List.rev src.root.n_children);
  Hashtbl.iter
    (fun name r ->
      match Hashtbl.find_opt into.counters_tbl name with
      | Some d -> d := !d + !r
      | None -> Hashtbl.replace into.counters_tbl name (ref !r))
    src.counters_tbl;
  Hashtbl.iter
    (fun name r ->
      match Hashtbl.find_opt into.dists_tbl name with
      | Some d -> d := !r @ !d
      | None -> Hashtbl.replace into.dists_tbl name (ref !r))
    src.dists_tbl;
  (* gauges are levels, not totals: the merged-in reading wins *)
  Hashtbl.iter
    (fun name r ->
      match Hashtbl.find_opt into.gauges_tbl name with
      | Some d -> d := !r
      | None -> Hashtbl.replace into.gauges_tbl name (ref !r))
    src.gauges_tbl

(* ------------------------------------------------------------------ *)
(* Inspection.                                                         *)

type span_snapshot = {
  sp_name : string;
  sp_ns : int;
  sp_calls : int;
  sp_children : span_snapshot list;
}

let rec snapshot node =
  {
    sp_name = node.n_name;
    sp_ns = node.n_ns;
    sp_calls = node.n_calls;
    sp_children = List.rev_map snapshot node.n_children;
  }

let spans t = (snapshot t.root).sp_children

let counter t name = Hashtbl.find_opt t.counters_tbl name |> Option.map ( ! )

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters_tbl []
  |> List.sort compare

let distribution t name =
  match Hashtbl.find_opt t.dists_tbl name with
  | Some r -> List.rev !r
  | None -> []

let distributions t =
  Hashtbl.fold (fun name r acc -> (name, List.rev !r) :: acc) t.dists_tbl []
  |> List.sort compare

let gauge t name = Hashtbl.find_opt t.gauges_tbl name |> Option.map ( ! )

let gauges t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.gauges_tbl []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Human summary.                                                      *)

let pp_ns ppf ns =
  if ns >= 1_000_000_000 then Fmt.pf ppf "%8.3f s " (float_of_int ns /. 1e9)
  else if ns >= 1_000_000 then Fmt.pf ppf "%8.3f ms" (float_of_int ns /. 1e6)
  else Fmt.pf ppf "%8.3f us" (float_of_int ns /. 1e3)

(* Per-span duration statistics, shown when a span ran more than once (the
   span-distribution report: build_ir:<proc> across procedures, stages
   across table configurations, …). *)
let pp_span_stats ppf durations =
  match durations with
  | [] | [ _ ] -> ()
  | ds ->
    Fmt.pf ppf "  (p50 %a  p90 %a  stddev %.0f ns)" pp_ns
      (Stats.percentile ds 50.0) pp_ns
      (Stats.percentile ds 90.0)
      (Stats.stddev ds)

let schema_version = "ipcp.profile/1"

let pp_summary ppf t =
  let total_ns =
    List.fold_left (fun acc c -> acc + c.n_ns) 0 t.root.n_children
  in
  Fmt.pf ppf "=== profile (%s)@." schema_version;
  Fmt.pf ppf "--- spans@.";
  let rec pp_node depth node =
    let pct =
      if total_ns = 0 then 0.0
      else 100.0 *. float_of_int node.n_ns /. float_of_int total_ns
    in
    Fmt.pf ppf "  %a %5.1f%% %6dx  %s%s%a@." pp_ns node.n_ns pct node.n_calls
      (String.make (2 * depth) ' ')
      node.n_name pp_span_stats node.n_durations;
    List.iter (pp_node (depth + 1)) (List.rev node.n_children)
  in
  List.iter (pp_node 0) (List.rev t.root.n_children);
  (match counters t with
  | [] -> ()
  | cs ->
    Fmt.pf ppf "--- counters@.";
    List.iter (fun (name, v) -> Fmt.pf ppf "  %-44s %12d@." name v) cs);
  (match gauges t with
  | [] -> ()
  | gs ->
    Fmt.pf ppf "--- gauges@.";
    List.iter (fun (name, v) -> Fmt.pf ppf "  %-44s %12d@." name v) gs);
  match distributions t with
  | [] -> ()
  | ds ->
    Fmt.pf ppf "--- distributions@.";
    Fmt.pf ppf "  %-34s %8s %12s %10s %10s %10s@." "name" "count" "sum" "mean"
      "p50" "p90";
    List.iter
      (fun (name, vs) ->
        Fmt.pf ppf "  %-34s %8d %12d %10.1f %10d %10d@." name (List.length vs)
          (Stats.sum vs) (Stats.mean vs)
          (Stats.percentile vs 50.0)
          (Stats.percentile vs 90.0))
      ds

(* ------------------------------------------------------------------ *)
(* JSON export.                                                        *)

let rec span_to_json node =
  Json.Obj
    ([
       ("name", Json.Str node.n_name);
       ("ns", Json.Int node.n_ns);
       ("calls", Json.Int node.n_calls);
     ]
    @
    match node.n_children with
    | [] -> []
    | cs -> [ ("children", Json.Arr (List.rev_map span_to_json cs)) ])

let dist_to_json vs =
  Json.Obj
    [
      ("count", Json.Int (List.length vs));
      ("sum", Json.Int (Stats.sum vs));
      ("mean", Json.Float (Stats.mean vs));
      ("min", Json.Int (Option.value ~default:0 (Stats.min_opt vs)));
      ("max", Json.Int (Option.value ~default:0 (Stats.max_opt vs)));
      ("p50", Json.Int (Stats.percentile vs 50.0));
      ("p90", Json.Int (Stats.percentile vs 90.0));
      ("stddev", Json.Float (Stats.stddev vs));
    ]

let to_json t =
  Json.Obj
    ([
       ("schema", Json.Str schema_version);
       ("spans", Json.Arr (List.rev_map span_to_json t.root.n_children));
       ( "counters",
         Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)) );
       ( "distributions",
         Json.Obj
           (List.map (fun (k, vs) -> (k, dist_to_json vs)) (distributions t)) );
     ]
    @
    (* only when present, so gauge-free profiles keep the exact
       ipcp.profile/1 shape earlier tooling pins *)
    match gauges t with
    | [] -> []
    | gs -> [ ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) gs)) ]
    )

(* ------------------------------------------------------------------ *)
(* Health snapshot.                                                    *)

let health_schema_version = "ipcp.health/1"

let health_snapshot ~gauges ~counters =
  let obj kvs =
    Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (List.sort compare kvs))
  in
  Json.Obj
    [
      ("schema", Json.Str health_schema_version);
      ("gauges", obj gauges);
      ("counters", obj counters);
    ]

let write_json path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string_pretty (to_json t));
      output_char oc '\n')

let append_json path t =
  let oc = open_out_gen [ Open_append; Open_creat; Open_text ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json t));
      output_char oc '\n')
