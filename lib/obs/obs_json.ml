(** Minimal JSON tree shared by the whole telemetry layer: the metrics
    snapshot, the decision log, the Chrome trace writer and the benchmark
    report all emit through it, and the schema-validation smoke tests
    parse back through it.  No external dependency.

    Emission rules (kept bit-compatible with the historical benchmark
    report): floats print with [%.12g]; non-finite floats serialize as
    [null]. *)

type t =
  | Null  (** also what non-finite floats serialize as *)
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.12g" f)
    else emit b Null
  | Str s ->
    Buffer.add_char b '"';
    escape b s;
    Buffer.add_char b '"'
  | List xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        emit b x)
      xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        escape b k;
        Buffer.add_string b "\":";
        emit b v)
      kvs;
    Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 4096 in
  emit b j;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing (recursive descent; enough for round-trip and validation)   *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let of_string (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char b '"'; advance ()
             | '\\' -> Buffer.add_char b '\\'; advance ()
             | '/' -> Buffer.add_char b '/'; advance ()
             | 'n' -> Buffer.add_char b '\n'; advance ()
             | 't' -> Buffer.add_char b '\t'; advance ()
             | 'r' -> Buffer.add_char b '\r'; advance ()
             | 'b' -> Buffer.add_char b '\b'; advance ()
             | 'f' -> Buffer.add_char b '\012'; advance ()
             | 'u' ->
               advance ();
               if !pos + 4 > n then fail "short \\u escape";
               let hex = String.sub s !pos 4 in
               let code =
                 try int_of_string ("0x" ^ hex)
                 with _ -> fail "bad \\u escape"
               in
               pos := !pos + 4;
               (* keep it simple: ASCII raw, the rest as UTF-8 *)
               if code < 0x80 then Buffer.add_char b (Char.chr code)
               else if code < 0x800 then begin
                 Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                 Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
               end
               else begin
                 Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                 Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                 Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
               end
             | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          go ()
        | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) lit then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec go () =
          items := parse_value () :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); go ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        go ();
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let items = ref [] in
        let rec go () =
          skip_ws ();
          let k = parse_string () in
          (* every schema in this repo keys objects uniquely, so a
             duplicate is always a generator bug — reject it rather
             than silently shadowing one binding in [member] *)
          if List.mem_assoc k !items then
            fail (Printf.sprintf "duplicate key %S" k);
          skip_ws ();
          expect ':';
          let v = parse_value () in
          items := (k, v) :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); go ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        go ();
        Obj (List.rev !items)
      end
    | Some ('0' .. '9' | '-') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
    | None -> fail "unexpected end of input"
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing input at offset %d" !pos)
    else Ok v
  with Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_list = function List xs -> Some xs | _ -> None

(* JSON has one number type: [Float 1.] emits as "1" and parses back as
   [Int 1], so equality compares numbers by value.  Non-finite floats
   emit as [null] and never round-trip as floats, so NaN cannot reach
   the float comparison. *)
let rec equal (a : t) (b : t) =
  match (a, b) with
  | Int i, Float f | Float f, Int i -> float_of_int i = f
  | List xs, List ys ->
    List.length xs = List.length ys && List.for_all2 equal xs ys
  | Obj xs, Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k, v) (k', v') -> String.equal k k' && equal v v')
         xs ys
  | _ -> a = b

(* ------------------------------------------------------------------ *)
(* Validation kit                                                      *)
(* ------------------------------------------------------------------ *)

type 'a check = t -> ('a, string) result

let ( let* ) = Result.bind
let expect cond msg = if cond then Ok () else Error msg

let field kind get name j =
  match member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
    match get v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S must be %s" name kind))

let int = field "an integer" (function Int i -> Some i | _ -> None)

let num =
  field "a number" (function
    | Int i -> Some (float_of_int i)
    | Float f -> Some f
    | _ -> None)

let str = field "a string" (function Str s -> Some s | _ -> None)
let bool = field "a boolean" (function Bool b -> Some b | _ -> None)
let list = field "a list" to_list
let obj = field "an object" (function Obj _ as o -> Some o | _ -> None)

let opt f name j =
  match member name j with
  | None -> Ok None
  | Some _ -> Result.map Option.some (f name j)

let nullable f name j =
  match member name j with
  | Some Null -> Ok None
  | _ -> Result.map Option.some (f name j)

let fields f names j =
  List.fold_left
    (fun acc name ->
      let* () = acc in
      Result.map ignore (f name j))
    (Ok ()) names

let rows name row j =
  let* xs = list name j in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
      match row x with
      | Ok v -> go (i + 1) (v :: acc) rest
      | Error e -> Error (Printf.sprintf "%s[%d]: %s" name i e))
  in
  go 0 [] xs

let each name row j = Result.map ignore (rows name row j)

let header ?version schema j =
  let* s = str "schema" j in
  let* () =
    expect (s = schema) (Printf.sprintf "unknown schema %S (want %S)" s schema)
  in
  match version with
  | None -> Ok ()
  | Some v ->
    let* n = int "schema_version" j in
    expect (n = v)
      (Printf.sprintf "unsupported schema_version %d (want %d)" n v)

(* ------------------------------------------------------------------ *)
(* Document dispatch                                                   *)
(* ------------------------------------------------------------------ *)

type doc = { schema : string; validate : unit check }

let trace_event e =
  let* () = fields str [ "name"; "ph" ] e in
  fields num [ "ts" ] e

let rec validate_doc ~report docs j =
  match (member "schema" j, member "traceEvents" j) with
  | None, Some _ ->
    let* evs = rows "traceEvents" trace_event j in
    Ok (Printf.sprintf "trace: %d events" (List.length evs))
  | _ ->
    let* s = str "schema" j in
    if s = report then
      let kvs = match j with Obj kvs -> kvs | _ -> [] in
      let* keys =
        List.fold_left
          (fun acc (k, v) ->
            let* keys = acc in
            if member "schema" v = None then Ok keys
            else
              match validate_doc ~report docs v with
              | Ok _ -> Ok (k :: keys)
              | Error e -> Error (Printf.sprintf "member %S: %s" k e))
          (Ok []) kvs
      in
      Ok (Printf.sprintf "%s: %s" s (String.concat ", " (List.rev keys)))
    else
      match List.find_opt (fun d -> d.schema = s) docs with
      | None -> Error (Printf.sprintf "unknown schema %S" s)
      | Some d -> Result.map (fun () -> s) (d.validate j)
