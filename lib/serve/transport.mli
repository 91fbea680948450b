(** Socket transport for the serving layer: address notation, listener
    and client-connection setup, the line framing of every byte stream
    the servers and the router read, and {!Outbuf}, the nonblocking
    writes that never tear a frame.

    Addresses are written [unix:PATH] (a filesystem socket) or
    [tcp:HOST:PORT]; a bare string containing [/] is taken as a Unix
    socket path.  The framing splits a byte stream into
    newline-delimited request lines while enforcing a per-line length
    cap: the first line to exceed it poisons the framer (one
    {!Framing.Oversize} event, then silence), which the listener turns
    into a structured [E-REQ-OVERSIZE] refusal and a close — buffering
    an unbounded line for a client that never sends a newline is exactly
    the slow-loris memory attack the cap exists to stop. *)

type addr =
  | Unix_sock of string  (** filesystem socket path *)
  | Tcp of string * int  (** host (name, numeric, or ["*"] = any) and port *)

val parse_addr : string -> (addr, string) result
val addr_to_string : addr -> string

(** Bind and listen.  A stale Unix socket file left by a dead process is
    removed first (connecting to it can only ever fail).  TCP listeners
    set [SO_REUSEADDR].  Raises [Unix.Unix_error] when the address
    cannot be bound. *)
val listen : ?backlog:int -> addr -> Unix.file_descr

(** Connect as a client.  Raises [Unix.Unix_error] on refusal. *)
val connect : addr -> Unix.file_descr

(** Remove the filesystem artifact of a Unix-socket listener
    (best-effort; TCP addresses are a no-op). *)
val unlink_addr : addr -> unit

(** Line framing that costs the bytes it reads: each read is scanned
    once, so a line that arrives in many reads (a 1 MiB line in 4096-byte
    reads) is not rescanned or copied once per read. *)
module Framing : sig
  type t

  type event =
    | Line of string  (** one complete request line (newline stripped) *)
    | Oversize
        (** the buffered line exceeded [max_line]; terminal — the
            framer ignores all further input *)

  (** [max_line <= 0] leaves the length unchecked.  Otherwise a line of
      [max_line] bytes (newline not counted) is a {!Line}, and one of
      more is {!Oversize}, however the reads split it. *)
  val create : max_line:int -> t

  val feed : t -> string -> event list

  (** The trailing unterminated line at EOF, if any ([feed] order: a
      client that closes without a final newline still submitted that
      line).  Resets the buffer. *)
  val finish : t -> string option

  (** A partial line is buffered — the state the read deadline guards. *)
  val partial : t -> bool
end

(** The write-side twin of {!Framing}: frames to a socket peer — a
    listener's responses to a client, the router's requests to a shard —
    survive short/partial writes.  The fd is switched to nonblocking at
    {!Outbuf.create}; a write the kernel only partially accepts
    ([EAGAIN]/[EWOULDBLOCK] mid-frame) buffers its unwritten tail, and
    the select loop resumes it with {!Outbuf.service} when the fd turns
    writable — frames are never torn, never reordered, and neither a
    worker domain nor the router blocks on a slow reader.  A tail that
    outgrows the cap (default 8 MiB) or any hard write error latches the
    buffer dead: the peer is treated as gone and the bytes are dropped
    (a listener does its E-LOAD-GONE accounting, the router its shard
    death protocol). *)
module Outbuf : sig
  type t

  (** Takes ownership of write-side concerns of [fd] (sets
      [O_NONBLOCK]).  [cap] bounds the buffered tail in bytes. *)
  val create : ?cap:int -> Unix.file_descr -> t

  val fd : t -> Unix.file_descr

  (** Append one whole frame and push as much as the kernel accepts.
      [`Ok] = fully written, [`Buffered] = a tail remains (watch the fd
      for writability and call {!service}), [`Dead] = the peer is gone
      (this frame, and any tail, were dropped). *)
  val write : t -> string -> [ `Ok | `Buffered | `Dead ]

  (** Resume the buffered tail (call when select reports the fd
      writable).  Same verdicts as {!write}. *)
  val service : t -> [ `Ok | `Buffered | `Dead ]

  (** A tail is buffered and the peer is still believed alive — the
      condition under which the fd belongs in the select write set. *)
  val pending : t -> bool

  val dead : t -> bool
end
