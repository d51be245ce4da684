(** Wide-area shared editor — Section 4.1's collaborative application.

    The document is a set of paragraphs.  Per the paper, each paragraph
    exports two conits: one accumulating characters {e added}, one characters
    {e deleted}; an edit's weights equal the number of characters it touches.
    Numerical error then measures the "amount" of unseen remote modification,
    order error the "instability" of the observed version (uncommitted edits,
    weighted by size), and staleness the propagation delay of edits.
    Per-(paragraph, author) conits give per-author consistency levels. *)

val add_conit : para:int -> string
val del_conit : para:int -> string
val author_conit : para:int -> author:int -> string

val procs : Tact_store.Op.procs
(** The edit procedures, ["editor.insert"] and ["editor.delete"]; a system
    running {!insert_text} or {!delete_chars} must carry them in
    [Config.procs]. *)

val insert_text :
  Tact_replica.Session.t -> para:int -> author:int -> text:string ->
  k:(Tact_store.Op.outcome -> unit) -> unit
(** Append [text] to the paragraph; affects the add conit (and the author's
    conit) with weight [String.length text]. *)

val delete_chars :
  Tact_replica.Session.t -> para:int -> author:int -> count:int ->
  k:(Tact_store.Op.outcome -> unit) -> unit
(** Remove the last [count] characters of the paragraph (clamped); affects
    the delete conit with weight [count]. *)

val read_paragraph :
  Tact_replica.Session.t ->
  para:int ->
  max_unseen_chars:float ->  (* NE bound on both conits *)
  max_instability:float ->  (* OE bound: uncommitted character churn *)
  max_delay:float ->  (* ST bound on modification propagation *)
  k:(string -> unit) ->
  unit

val document : Tact_store.Db.t -> paras:int -> string list
(** The observed paragraphs in order. *)
