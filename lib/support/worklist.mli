(** FIFO worklist with a membership set: an item is queued at most once. *)

type 'a t

(** Lifetime counters of one worklist; solvers report these to the
    telemetry layer after draining. *)
type stats = {
  pushes : int;  (** items actually enqueued *)
  dedup_skips : int;  (** pushes absorbed by the membership set *)
  pops : int;
  max_length : int;  (** high-water mark of the queue *)
}

(** Counters accumulated so far (cheap snapshot). *)
val stats : 'a t -> stats

(** Create an empty worklist. *)
val create : unit -> 'a t

val is_empty : 'a t -> bool

(** Number of items currently queued. *)
val length : 'a t -> int

(** Enqueue an item unless it is already queued. *)
val push : 'a t -> 'a -> unit

val push_list : 'a t -> 'a list -> unit

(** Dequeue the oldest item, or [None] if empty. *)
val pop : 'a t -> 'a option

(** [drain t f] pops items and applies [f] until empty; [f] may push. *)
val drain : 'a t -> ('a -> unit) -> unit

(** Items currently queued, oldest first, without consuming them. *)
val elements : 'a t -> 'a list

val of_list : 'a list -> 'a t

(** The same FIFO and counters over the ints [[0, n)], with arrays in
    place of the membership hash table: no hashing per push or pop. *)
module Dense : sig
  type t

  (** An empty worklist over [[0, n)]. *)
  val create : int -> t

  val push : t -> int -> unit
  val pop : t -> int option
  val stats : t -> stats
end
