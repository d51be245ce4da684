(** Parse the tree's [.ml] files into real parsetrees.

    A {!source} carries the repo-relative path, the directory it was found
    under (the layering unit, e.g. ["lib/core"]), the module name derived
    from the filename, and either a parsetree or the parse error.  Loading
    never raises on bad input: a file that does not parse becomes a source
    with [s_ast = None] and the analyzer reports it as SA001.

    When a sibling [.mli] exists it is parsed too ({!intf}): the exported
    [val] names feed the dead-exported-API pass (SA004), and an interface
    that fails to parse is reported like an unparsable implementation. *)

type intf = {
  i_path : string;  (** the [.mli] path *)
  i_vals : (string * int) list;
      (** exported top-level value names with the 1-based line of the
          [val] item, in signature order *)
  i_error : (int * int * string) option;  (** line, col, message *)
}

type allow = {
  a_file : bool;  (** [allow-file]: covers every line of the file *)
  a_rules : string list;  (** the annotation keys it names, in order *)
  a_line : int;  (** 1-based line the comment opens on *)
  a_last : int;
      (** last covered line: the line after the comment closes, so a
          multi-line rationale still covers the code beneath it *)
}
(** A parsed [(* lint: allow <rules> -- why *)] or
    [(* lint: allow-file <rules> -- why *)] suppression annotation. *)

type source = {
  s_path : string;  (** repo-relative, '/'-separated *)
  s_dir : string;  (** directory component, e.g. ["lib/util"] or ["bin"] *)
  s_module : string;  (** ["Pool"] for [lib/util/pool.ml] *)
  s_ast : Parsetree.structure option;
  s_error : (int * int * string) option;  (** line, col, message *)
  s_comments : (int * string) list;
      (** comments in source order, each with the 1-based line it opened
          on — effect annotations live here *)
  s_allows : allow list;  (** well-formed allow annotations, in order *)
  s_allow_errors : (int * string) list;
      (** comments that open with [lint:] but do not parse as an allow
          annotation: (line, reason) *)
  s_intf : intf option;  (** sibling [.mli], when one exists *)
}

type t = {
  sources : source list;  (** sorted by path *)
  dirs : (string * string list) list;  (** dir -> sorted module names *)
}

val parse_allow : string -> (bool * string list, string) result option
(** The one parser for suppression annotations.  [parse_allow text] reads a
    comment's text (without delimiters): [None] when it does not open with
    [lint:] (it is prose, whatever words it contains); otherwise
    [Some (Ok (file_wide, keys))] for
    [lint: allow KEY[, KEY...] -- REASON] or
    [lint: allow-file KEY[, KEY...] -- REASON] (an em dash may stand for
    [--]; keys are lower-case kebab words; the reason must not be empty),
    and [Some (Error why)] for anything else. *)

val covers : allow -> rule:string -> int -> bool
(** [covers a ~rule line]: [a] names [rule] and [line] lies in its span. *)

val allowed : source -> rule:string -> int -> bool
(** Some annotation of the source covers [rule] at [line]. *)

val load_string : ?intf:string -> path:string -> string -> source
(** Parse [src] as if read from [path] (used by tests to inject synthetic
    modules without touching disk).  [intf], when given, is the text of the
    sibling interface, parsed as [path ^ "i"]. *)

val load_file : string -> source

val of_sources : source list -> t
(** Index a source list (sorts, builds the per-directory module table). *)

val load_dirs : ?root:string -> string list -> t
(** Walk each directory recursively, loading every [.ml] file and pairing
    each with its sibling [.mli] when present.  Paths in the result are
    relative to [root] (default ["."]).  Missing directories are skipped
    silently so the analyzer can run on partial checkouts. *)

val modules_in_dir : t -> string -> string list
(** Sorted module names under a directory; [[]] when unknown. *)

val find_module : t -> dir:string -> string -> source option

val wrapper_dir : string -> string option
(** [wrapper_dir "Tact_util"] is [Some "lib/util"]: the dune library
    wrapper-module naming convention used across this repo.  [None] for
    names without the [Tact_] prefix. *)
