(** The typed error taxonomy of the serve/certify boundary.

    Every non-[ok] cause a response frame can carry — and the one [ok]
    caveat, sound budget degradation — is a structured
    [{code; class; loc?; detail}] object rather than a rendered string,
    so clients branch on stable codes and machine-readable classes while
    human text stays in the frame's [reason] key.  The classes and their
    code prefixes:

    - [request] / [E-REQ-*]: the request line was refused at parse time
      (see {!Request.error_code}), or refused by the socket listener
      before parsing — [E-REQ-OVERSIZE] (the line exceeded the
      per-connection length cap) and [E-REQ-TIMEOUT] (the read deadline
      expired with a partial request buffered).
    - [certification] / [E-CERT-*]: online certification of a served
      solution failed — the first violation's obligation code
      ([E-CERT-EDGE], [E-CERT-MOD], ...).
    - [budget] / [E-BUDGET-*]: the analysis degraded soundly under a
      per-request budget ([E-BUDGET-STEPS], [E-BUDGET-DEADLINE],
      [E-BUDGET-STARVED]); attached to [ok] frames as a caveat.
    - [load] / [E-LOAD-*]: admission-control refusals — [E-LOAD-SHED]
      (displaced from a full queue), [E-LOAD-REJECT] (refused at a full
      queue), [E-LOAD-DRAIN] (read but never admitted before drain),
      [E-LOAD-QUARANTINE] (the input's circuit breaker is open),
      and [E-LOAD-GONE] (the client connection vanished before its
      terminal response could be written — logged as a stderr accounting
      entry, never on the wire, so conservation stays auditable).
    - [worker] / [E-WORKER-*]: the executing worker crashed
      ([E-WORKER-CRASH]); only that request fails.  [E-WORKER-LOST] is
      the router-scope variant: the shard process serving the request
      died, and so did the one the request was re-routed to.

    Rendering is pinned by the frame goldens: a JSON object with keys in
    the fixed order [code], [class], [loc] (omitted when absent),
    [detail]. *)

type cls = Request_error | Certification | Budget | Load | Worker

val class_name : cls -> string
val class_of_name : string -> cls option

(** The stable code prefix every code of the class carries ([E-REQ-],
    [E-CERT-], [E-BUDGET-], [E-LOAD-], [E-WORKER-]). *)
val class_prefix : cls -> string

type t = {
  e_code : string;  (** stable machine-readable code, e.g. [E-CERT-EDGE] *)
  e_class : cls;
  e_loc : string option;
      (** program location of the failure ([proc:file:line:col]) when one
          obligation pinpoints it *)
  e_detail : string;  (** human-readable specifics; never empty *)
}

(** Constructors, one per class.  Each checks nothing: [well_formed]
    is the schema validator the harnesses apply to parsed frames. *)

val request : code:string -> string -> t
val certification : ?loc:string -> code:string -> string -> t
val budget : code:string -> string -> t
val shed : string -> t
val rejected : string -> t
val draining : string -> t
val quarantined : string -> t
val worker_crash : string -> t
val worker_lost : string -> t
val gone : string -> t
val oversize : string -> t
val timed_out : string -> t

(** The code matches its class prefix and [detail] is non-empty — the
    frame-schema obligation the fuzz harnesses enforce on every [error]
    object a server emits. *)
val well_formed : t -> bool

(** Fixed-key-order JSON rendering: [code], [class], [loc]?, [detail]. *)
val to_json : t -> Ipcp_telemetry.Json.t

val of_json : Ipcp_telemetry.Json.t -> (t, string) result

(** [code class: detail] (one line, for logs and test failures). *)
val pp : t Fmt.t
