(* The one typed event stream: replica, TCP and fault-injection events,
   one record and one printer. *)

type kind =
  | Accept of Write.t
  | Transfer of { from : int; writes : int }
  | Commit of { writes : int; csn : bool }
  | Snapshot of { from : int; committed : int }
  | Blocked of { write : bool; deps : int }
  | Served of { wait : float }
  | Malformed of string
  | Wrong_shard of { shard : int; serving : int }
  | Crash
  | Recover
  | Link of { peer : int; before : string; cause : string; after : string }
  | Enqueue of { peer : int; bytes : int }
  | Park of { peer : int; bytes : int }
  | Recv of { peer : int; bytes : int }
  | Hello of int
  | Ack of int
  | Write_failed of { peer : int; error : string }
  | Dropped of int option
  | Fault of { at : float; action : string }

type t = { time : float; node : int; kind : kind }

let label_and_detail = function
  | Accept w -> ("accept", Write.to_string w)
  | Transfer { from; writes } ->
    ("transfer", Printf.sprintf "%d new writes from replica %d" writes from)
  | Commit { writes; csn } ->
    ("commit", Printf.sprintf "%d writes (%s)" writes (if csn then "csn" else "stability"))
  | Snapshot { from; committed } ->
    ("snapshot", Printf.sprintf "installed %d committed writes from replica %d" committed from)
  | Blocked { write; deps } ->
    ("blocked", Printf.sprintf "%s with %d deps" (if write then "write" else "read") deps)
  | Served { wait } -> ("served", Printf.sprintf "read after %.3fs wait" wait)
  | Malformed reason -> ("malformed", reason)
  | Wrong_shard { shard; serving } ->
    ("wrong-shard", Printf.sprintf "rejected frame for shard %d (serving %d)" shard serving)
  | Crash -> ("crash", "replica down")
  | Recover -> ("recover", "replica up")
  | Link { peer; before; cause; after } ->
    ("link", Printf.sprintf "peer %d: %s --%s--> %s" peer before cause after)
  | Enqueue { peer; bytes } -> ("enqueue", Printf.sprintf "-> %d: %dB" peer bytes)
  | Park { peer; bytes } -> ("park", Printf.sprintf "-> %d: %dB" peer bytes)
  | Recv { peer; bytes } ->
    ("recv", Printf.sprintf "<- %d: %dB%s" peer bytes (if bytes = 0 then " (probe)" else ""))
  | Hello peer -> ("hello", Printf.sprintf "<- %d" peer)
  | Ack peer -> ("ack", Printf.sprintf "-> %d" peer)
  | Write_failed { peer; error } -> ("write-fail", Printf.sprintf "-> %d: %s" peer error)
  | Dropped peer ->
    ( "dropped",
      Printf.sprintf "conn from %s"
        (match peer with Some i -> string_of_int i | None -> "?") )
  | Fault { at; action } -> ("fault", Printf.sprintf "@%.2f: %s" at action)

let to_string e =
  let label, detail = label_and_detail e.kind in
  Printf.sprintf "[%9.4f] %-12s %-10s %s" e.time
    (if e.node < 0 then "nemesis" else Printf.sprintf "replica %d" e.node)
    label detail
