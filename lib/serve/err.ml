module Json = Ipcp_telemetry.Json

type cls = Request_error | Certification | Budget | Load | Worker

let class_name = function
  | Request_error -> "request"
  | Certification -> "certification"
  | Budget -> "budget"
  | Load -> "load"
  | Worker -> "worker"

let class_of_name = function
  | "request" -> Some Request_error
  | "certification" -> Some Certification
  | "budget" -> Some Budget
  | "load" -> Some Load
  | "worker" -> Some Worker
  | _ -> None

let class_prefix = function
  | Request_error -> "E-REQ-"
  | Certification -> "E-CERT-"
  | Budget -> "E-BUDGET-"
  | Load -> "E-LOAD-"
  | Worker -> "E-WORKER-"

type t = {
  e_code : string;
  e_class : cls;
  e_loc : string option;
  e_detail : string;
}

let make ?loc ~code cls detail =
  { e_code = code; e_class = cls; e_loc = loc; e_detail = detail }

let request ~code detail = make ~code Request_error detail
let certification ?loc ~code detail = make ?loc ~code Certification detail
let budget ~code detail = make ~code Budget detail
let shed detail = make ~code:"E-LOAD-SHED" Load detail
let rejected detail = make ~code:"E-LOAD-REJECT" Load detail
let draining detail = make ~code:"E-LOAD-DRAIN" Load detail
let quarantined detail = make ~code:"E-LOAD-QUARANTINE" Load detail
let worker_crash detail = make ~code:"E-WORKER-CRASH" Worker detail
let worker_lost detail = make ~code:"E-WORKER-LOST" Worker detail
let gone detail = make ~code:"E-LOAD-GONE" Load detail
let oversize detail = make ~code:"E-REQ-OVERSIZE" Request_error detail
let timed_out detail = make ~code:"E-REQ-TIMEOUT" Request_error detail

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let well_formed t =
  starts_with ~prefix:(class_prefix t.e_class) t.e_code
  && t.e_detail <> ""
  && t.e_loc <> Some ""

let to_json t =
  Json.Obj
    ([
       ("code", Json.Str t.e_code);
       ("class", Json.Str (class_name t.e_class));
     ]
    @ (match t.e_loc with
      | None -> []
      | Some l -> [ ("loc", Json.Str l) ])
    @ [ ("detail", Json.Str t.e_detail) ])

let of_json doc =
  let str name = Option.bind (Json.member name doc) Json.to_string_opt in
  match doc with
  | Json.Obj _ -> (
    match (str "code", Option.bind (str "class") class_of_name, str "detail") with
    | Some code, Some cls, Some detail ->
      Ok { e_code = code; e_class = cls; e_loc = str "loc"; e_detail = detail }
    | None, _, _ -> Error "error object has no \"code\""
    | _, None, _ -> Error "error object has no valid \"class\""
    | _, _, None -> Error "error object has no \"detail\"")
  | _ -> Error "error value is not a JSON object"

let pp ppf t =
  Fmt.pf ppf "%s %s%a: %s" t.e_code (class_name t.e_class)
    (Fmt.option (fun ppf l -> Fmt.pf ppf " at %s" l))
    t.e_loc t.e_detail
