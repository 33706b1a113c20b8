(** Minimal JSON tree shared by the telemetry layer and the benchmark
    report: emission ([%.12g] floats, non-finite as [null]) and a small
    parser for round-trip and schema-validation tests. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (no-whitespace) serialization.  Floats print with [%.12g];
    non-finite floats serialize as [null]. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document.  Stricter than the grammar in two
    ways telemetry validation wants: trailing input after the document
    is an error, and an object with a duplicate key is rejected (every
    schema in this repo keys objects uniquely, so a duplicate always
    means a generator bug).  Errors carry a byte offset. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on anything else. *)

val to_list : t -> t list option
val equal : t -> t -> bool

(** {1 Validation kit}

    The checks every schema validator is written in.  Each returns
    [Error msg] naming the offending field. *)

type 'a check = t -> ('a, string) result

val ( let* ) :
  ('a, string) result -> ('a -> ('b, string) result) -> ('b, string) result

val expect : bool -> string -> (unit, string) result
(** [Ok ()] when the condition holds, [Error msg] otherwise. *)

val header : ?version:int -> string -> unit check
(** The document is an object whose ["schema"] is the given name and,
    with [~version], whose ["schema_version"] is that integer. *)

val int : string -> int check
val num : string -> float check
(** An integer or a float, as a float. *)

val str : string -> string check
val bool : string -> bool check
val list : string -> t list check
val obj : string -> t check
(** The member, which must be an object. *)

val opt : (string -> 'a check) -> string -> 'a option check
(** [None] when the field is absent, else the typed field. *)

val nullable : (string -> 'a check) -> string -> 'a option check
(** [None] when the field is [null], else the typed field. *)

val fields : (string -> 'a check) -> string list -> unit check
(** Every named field has the type. *)

val rows : string -> 'a check -> 'a list check
(** [rows name row]: field [name] is a list whose every element passes
    [row], in order; an error is prefixed with ["name[i]: "]. *)

val each : string -> unit check -> unit check
(** {!rows} for checks that return nothing. *)

(** {1 Document dispatch} *)

type doc = { schema : string; validate : unit check }
(** A versioned document type: its ["schema"] name and its validator. *)

val validate_doc : report:string -> doc list -> string check
(** Validate a document by the descriptor its ["schema"] field names.
    A document whose schema is [report] is a report: every member that
    carries a ["schema"] field is validated the same way, and an error
    names the member's key.  A document without a ["schema"] but with a
    ["traceEvents"] list is a Chrome trace.  [Ok] says what was
    checked. *)
