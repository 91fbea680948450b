(** FIFO worklist with a membership set, so an item is present at most once.

    Iterative data-flow solvers in this repository (the MOD/REF fixpoint, the
    interprocedural constant propagation solver, SCCP) all share this shape:
    pull an item, process it, push its affected neighbours.  Keeping a
    membership set bounds the queue size by the number of distinct items. *)

(** Lifetime counters of one worklist, for the telemetry layer: solvers
    report them after draining, which keeps this module dependency-free. *)
type stats = {
  pushes : int;  (** items actually enqueued *)
  dedup_skips : int;  (** pushes absorbed by the membership set *)
  pops : int;
  max_length : int;  (** high-water mark of the queue *)
}

type 'a t = {
  queue : 'a Queue.t;
  mutable members : ('a, unit) Hashtbl.t;
  mutable st_pushes : int;
  mutable st_dedup_skips : int;
  mutable st_pops : int;
  mutable st_max_length : int;
}

let create () =
  {
    queue = Queue.create ();
    members = Hashtbl.create 64;
    st_pushes = 0;
    st_dedup_skips = 0;
    st_pops = 0;
    st_max_length = 0;
  }

let is_empty t = Queue.is_empty t.queue

let length t = Queue.length t.queue

let stats t =
  {
    pushes = t.st_pushes;
    dedup_skips = t.st_dedup_skips;
    pops = t.st_pops;
    max_length = t.st_max_length;
  }

let push t x =
  if Hashtbl.mem t.members x then t.st_dedup_skips <- t.st_dedup_skips + 1
  else begin
    Hashtbl.replace t.members x ();
    Queue.push x t.queue;
    t.st_pushes <- t.st_pushes + 1;
    let len = Queue.length t.queue in
    if len > t.st_max_length then t.st_max_length <- len
  end

let push_list t xs = List.iter (push t) xs

let pop t =
  match Queue.pop t.queue with
  | x ->
    Hashtbl.remove t.members x;
    t.st_pops <- t.st_pops + 1;
    Some x
  | exception Queue.Empty -> None

(** [drain t f] repeatedly pops items and applies [f] until the worklist is
    empty.  [f] may push new items. *)
let drain t f =
  let rec loop () =
    match pop t with
    | None -> ()
    | Some x ->
      f x;
      loop ()
  in
  loop ()

(** Items currently queued, oldest first, without consuming them.  Used
    by budget-exhausted solvers to widen the pending work to ⊥. *)
let elements t = List.of_seq (Queue.to_seq t.queue)

let of_list xs =
  let t = create () in
  push_list t xs;
  t

(** The same FIFO over the ints [0, n), with arrays in place of the
    membership hash table: an item is queued at most once, so a ring of
    [n] slots holds the queue. *)
module Dense = struct
  type nonrec t = {
    ring : int array;
    queued : bool array;
    mutable head : int;
    mutable length : int;
    mutable st_pushes : int;
    mutable st_dedup_skips : int;
    mutable st_pops : int;
    mutable st_max_length : int;
  }

  let create n =
    {
      ring = Array.make n 0;
      queued = Array.make n false;
      head = 0;
      length = 0;
      st_pushes = 0;
      st_dedup_skips = 0;
      st_pops = 0;
      st_max_length = 0;
    }

  let push t i =
    if t.queued.(i) then t.st_dedup_skips <- t.st_dedup_skips + 1
    else begin
      t.queued.(i) <- true;
      let n = Array.length t.ring in
      let slot = t.head + t.length in
      t.ring.(if slot >= n then slot - n else slot) <- i;
      t.length <- t.length + 1;
      t.st_pushes <- t.st_pushes + 1;
      if t.length > t.st_max_length then t.st_max_length <- t.length
    end

  let pop t =
    if t.length = 0 then None
    else begin
      let i = t.ring.(t.head) in
      t.head <- (if t.head + 1 = Array.length t.ring then 0 else t.head + 1);
      t.length <- t.length - 1;
      t.queued.(i) <- false;
      t.st_pops <- t.st_pops + 1;
      Some i
    end

  let stats t =
    {
      pushes = t.st_pushes;
      dedup_skips = t.st_dedup_skips;
      pops = t.st_pops;
      max_length = t.st_max_length;
    }
end
