(* Validate machine-readable documents the toolchain emits.

   Usage: profile_lint [--stages] FILE...

   Three document kinds are recognized, keyed by shape:

   - profiles (schema ipcp.profile/1): the indented document
     --profile-json writes.  Every document must parse, carry the
     expected schema tag, and have a non-empty span tree and a counters
     object; with --stages, the four driver pipeline stages must all
     appear in the span tree (the CI smoke target runs the analyzer on
     the bundled suite, so their absence means the wiring regressed),
     and every frontend span must have exactly the children parse and
     sema (the parser pulls its tokens from the lexer, so there is no
     lex span);
   - health snapshots (schema ipcp.health/1): gauges and counters must
     be all-integer objects;
   - serve response streams (objects with "id" and "status"): one frame
     per line, `ipcp serve` output fed back for offline validation.
     Any frame with an "error" member must carry a well-formed typed
     error object — coded, classed, class-consistent prefix, non-empty
     detail ({!Ipcp_serve.Err}).

   Counter-coherence rules apply wherever counters appear: the online
   certification triple (certify.sampled / passed / failed) and the
   incremental cone triple travel together or not at all — a partial set
   means the telemetry wiring regressed.
   Health snapshots with router.* counters must carry the full
   gray-failure set (deadline_expired / hedged / ejections /
   late_dropped plus the heartbeat_age_ms gauge).

   Parallel runs (--jobs N) nest each worker's spans under a
   pool:domain-<i> node; the stage search is recursive, so the stages are
   found wherever the engine grafted them.  A document that carries pool
   spans must also carry the engine.* counters the work pool records —
   their absence means the per-domain telemetry merge regressed. *)

open Ipcp_telemetry

let required_stages =
  [ "stage1:return_jfs"; "stage2:forward_jfs"; "stage3:propagate";
    "stage4:record" ]

let span_name (j : Json.t) =
  Option.bind (Json.member "name" j) Json.to_string_opt

let span_children (j : Json.t) =
  Option.bind (Json.member "children" j) Json.to_list_opt
  |> Option.value ~default:[]

let rec span_names (j : Json.t) =
  Option.to_list (span_name j) @ List.concat_map span_names (span_children j)

(* The children's names of every span called [name], anywhere in the
   tree. *)
let rec children_of name (j : Json.t) =
  (if span_name j = Some name then
     [ List.filter_map span_name (span_children j) ]
   else [])
  @ List.concat_map (children_of name) (span_children j)

let frontend_layers = [ "parse"; "sema" ]

let health_schema = "ipcp.health/1"

let certify_triple = [ "certify.sampled"; "certify.passed"; "certify.failed" ]

(* the online-certification counters are recorded as a unit (creation at
   0 keeps them together), so a partial triple means the serve-layer
   telemetry regressed *)
let check_certify_triple (problem : string -> unit) counters =
  if List.exists (fun c -> List.mem c certify_triple) counters then
    List.iter
      (fun c ->
        if not (List.mem c counters) then
          problem (Printf.sprintf "certify counters present but %S missing" c))
      certify_triple

(* The router's gray-failure readings are created together at 0 (the
   stats record), so a merged snapshot carrying any router.* counter
   must carry the whole set plus the heartbeat-age gauge — a partial
   set means the merge or the stats wiring regressed. *)
let router_gray_counters =
  [ "router.deadline_expired"; "router.hedged"; "router.ejections";
    "router.late_dropped" ]

let check_router_gray (problem : string -> unit) ~gauges ~counters =
  if List.exists (fun c -> String.length c >= 7 && String.sub c 0 7 = "router.") counters
  then begin
    List.iter
      (fun c ->
        if not (List.mem c counters) then
          problem
            (Printf.sprintf "router counters present but %S missing" c))
      router_gray_counters;
    if not (List.mem "router.heartbeat_age_ms" gauges) then
      problem
        "router counters present but gauge \"router.heartbeat_age_ms\" missing"
  end

(* ipcp.health/1: gauges and counters, all-integer objects. *)
let check_health_doc ~where (doc : Json.t) : string list =
  let problems = ref [] in
  let problem fmt =
    Fmt.kstr (fun m -> problems := (where ^ ": " ^ m) :: !problems) fmt
  in
  let int_object section =
    match Json.member section doc with
    | Some (Json.Obj fields) ->
      List.filter_map
        (fun (k, v) ->
          match v with
          | Json.Int _ -> Some k
          | _ ->
            problem "%s.%s is not an integer" section k;
            None)
        fields
    | Some _ ->
      problem "%s is not an object" section;
      []
    | None ->
      problem "missing %s object" section;
      []
  in
  let gauges = int_object "gauges" in
  let counters = int_object "counters" in
  check_certify_triple (fun m -> problem "%s" m) counters;
  check_router_gray (fun m -> problem "%s" m) ~gauges ~counters;
  List.rev !problems

(* A serve response frame: "id" and "status" strings; any "error" member
   must be a well-formed typed error object. *)
let is_frame (doc : Json.t) =
  Option.bind (Json.member "id" doc) Json.to_string_opt <> None
  && Option.bind (Json.member "status" doc) Json.to_string_opt <> None

let check_frame ~where (doc : Json.t) : string list =
  let problems = ref [] in
  let problem fmt =
    Fmt.kstr (fun m -> problems := (where ^ ": " ^ m) :: !problems) fmt
  in
  let id =
    Option.value ~default:"?"
      (Option.bind (Json.member "id" doc) Json.to_string_opt)
  in
  (match
     Option.bind (Json.member "status" doc) Json.to_string_opt
     |> Fun.flip Option.bind Ipcp_serve.Request.status_of_name
   with
  | Some _ -> ()
  | None -> problem "frame %s: unknown status" id);
  (match Json.member "error" doc with
  | None -> ()
  | Some e -> (
    match Ipcp_serve.Err.of_json e with
    | Error m -> problem "frame %s: %s" id m
    | Ok err ->
      if not (Ipcp_serve.Err.well_formed err) then
        problem "frame %s: typed error %s is not well-formed" id
          err.Ipcp_serve.Err.e_code));
  List.rev !problems

let check_doc ~stages ~where (doc : Json.t) : string list =
  let problems = ref [] in
  let problem fmt = Fmt.kstr (fun m -> problems := (where ^ ": " ^ m) :: !problems) fmt in
  (match Option.bind (Json.member "schema" doc) Json.to_string_opt with
  | Some s when s = Telemetry.schema_version -> ()
  | Some s -> problem "unexpected schema %S (want %S)" s Telemetry.schema_version
  | None -> problem "missing schema tag");
  let spans =
    match Option.bind (Json.member "spans" doc) Json.to_list_opt with
    | Some [] | None ->
      problem "missing or empty span list";
      []
    | Some spans -> spans
  in
  let names = List.concat_map span_names spans in
  let counters =
    match Json.member "counters" doc with
    | Some (Json.Obj (_ :: _ as fields)) -> List.map fst fields
    | Some (Json.Obj []) ->
      problem "counters object is empty";
      []
    | Some _ ->
      problem "counters is not an object";
      []
    | None ->
      problem "missing counters object";
      []
  in
  let is_pool_span n =
    String.length n >= 12 && String.sub n 0 12 = "pool:domain-"
  in
  if List.exists is_pool_span names then
    List.iter
      (fun c ->
        if not (List.mem c counters) then
          problem "per-domain spans present but counter %S missing" c)
      [ "engine.pools"; "engine.domains"; "engine.tasks" ];
  (* incremental updates always record their cone triple together — a
     partial set means the Incr telemetry wiring regressed *)
  let incr_triple =
    [ "incr.cone_size"; "incr.procs_reused"; "incr.procs_resolved" ]
  in
  if List.exists (fun c -> List.mem c incr_triple) counters then
    List.iter
      (fun c ->
        if not (List.mem c counters) then
          problem "incremental counters present but %S missing" c)
      incr_triple;
  check_certify_triple (fun m -> problem "%s" m) counters;
  if stages then begin
    List.iter
      (fun stage ->
        if not (List.mem stage names) then
          problem "pipeline stage %S missing from span tree" stage)
      required_stages;
    List.iter
      (fun children ->
        if children <> frontend_layers then
          problem "frontend span has children [%s], want [%s]"
            (String.concat "; " children)
            (String.concat "; " frontend_layers))
      (List.concat_map (children_of "frontend") spans)
  end;
  List.rev !problems

(* A file is either one (possibly multi-line) document or one document per
   line (a serve frame stream); try the whole file first. *)
let docs_of_file path : (string * Json.t) list =
  let ic = open_in_bin path in
  let content =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.of_string (String.trim content) with
  | Ok doc -> [ (path, doc) ]
  | Error whole_err ->
    String.split_on_char '\n' content
    |> List.mapi (fun i line -> (i + 1, String.trim line))
    |> List.filter (fun (_, line) -> line <> "")
    |> List.map (fun (lineno, line) ->
           let where = Fmt.str "%s:%d" path lineno in
           match Json.of_string line with
           | Ok doc -> (where, doc)
           | Error line_err ->
             Fmt.epr "%s: unparseable as document (%s) or line (%s)@." path
               whole_err line_err;
             exit 1)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let stages = List.mem "--stages" args in
  let files = List.filter (fun a -> a <> "--stages") args in
  if files = [] then begin
    Fmt.epr "usage: profile_lint [--stages] FILE...@.";
    exit 2
  end;
  let problems =
    List.concat_map
      (fun path ->
        if not (Sys.file_exists path) then [ path ^ ": no such file" ]
        else
          docs_of_file path
          |> List.concat_map (fun (where, doc) ->
                 match
                   Option.bind (Json.member "schema" doc) Json.to_string_opt
                 with
                 | Some s when s = health_schema -> check_health_doc ~where doc
                 | Some _ -> check_doc ~stages ~where doc
                 | None ->
                   if is_frame doc then check_frame ~where doc
                   else check_doc ~stages ~where doc))
      files
  in
  match problems with
  | [] ->
    Fmt.pr "profile_lint: %d file(s) ok@." (List.length files);
    exit 0
  | ps ->
    List.iter (Fmt.epr "profile_lint: %s@.") ps;
    exit 1
