(* Minimal JSON reader and the shared scalar writers.

   The repo writes its JSON by hand (Result_codec, Trace, Attrib, Coflow,
   Series, Report) with the writers at the end of this file, and it
   deliberately carries no JSON dependency, so the report subcommand reads
   its own output format back with this small recursive-descent parser. It accepts standard JSON (RFC 8259): objects, arrays, strings
   with the usual escapes (\uXXXX included, surrogate pairs folded to
   UTF-8), numbers as OCaml floats, true/false/null. It is not streaming —
   inputs are whole result files or single JSONL lines, both small. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let error cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.s then Some cur.s.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  while
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') -> true
    | Some _ | None -> false
  do
    advance cur
  done

let expect cur c =
  match peek cur with
  | Some d when d = c -> advance cur
  | Some d -> error cur (Printf.sprintf "expected '%c', found '%c'" c d)
  | None -> error cur (Printf.sprintf "expected '%c', found end of input" c)

let literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.s
    && String.sub cur.s cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else error cur (Printf.sprintf "expected '%s'" word)

let hex4 cur =
  if cur.pos + 4 > String.length cur.s then error cur "truncated \\u escape";
  let v = ref 0 in
  for i = cur.pos to cur.pos + 3 do
    let d =
      match cur.s.[i] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> error cur "bad \\u escape"
    in
    v := (!v * 16) + d
  done;
  cur.pos <- cur.pos + 4;
  !v

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek cur with
    | None -> error cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
        advance cur;
        (match peek cur with
        | Some '"' -> Buffer.add_char buf '"'; advance cur
        | Some '\\' -> Buffer.add_char buf '\\'; advance cur
        | Some '/' -> Buffer.add_char buf '/'; advance cur
        | Some 'b' -> Buffer.add_char buf '\b'; advance cur
        | Some 'f' -> Buffer.add_char buf '\012'; advance cur
        | Some 'n' -> Buffer.add_char buf '\n'; advance cur
        | Some 'r' -> Buffer.add_char buf '\r'; advance cur
        | Some 't' -> Buffer.add_char buf '\t'; advance cur
        | Some 'u' ->
            advance cur;
            let hi = hex4 cur in
            let code =
              if hi >= 0xD800 && hi <= 0xDBFF then begin
                (* surrogate pair *)
                expect cur '\\';
                expect cur 'u';
                let lo = hex4 cur in
                if lo < 0xDC00 || lo > 0xDFFF then
                  error cur "unpaired surrogate"
                else 0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
              end
              else hi
            in
            add_utf8 buf code
        | Some c -> error cur (Printf.sprintf "bad escape '\\%c'" c)
        | None -> error cur "truncated escape");
        loop ())
    | Some c ->
        Buffer.add_char buf c;
        advance cur;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let accept () =
    match peek cur with
    | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> advance cur; true
    | Some _ | None -> false
  in
  while accept () do
    ()
  done;
  let text = String.sub cur.s start (cur.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> error cur (Printf.sprintf "bad number %S" text)

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> error cur "unexpected end of input"
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin
        advance cur;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws cur;
          let key = parse_string cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' -> advance cur; members ((key, v) :: acc)
          | Some '}' -> advance cur; List.rev ((key, v) :: acc)
          | _ -> error cur "expected ',' or '}'"
        in
        Obj (members [])
      end
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin
        advance cur;
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value cur in
          skip_ws cur;
          match peek cur with
          | Some ',' -> advance cur; elements (v :: acc)
          | Some ']' -> advance cur; List.rev (v :: acc)
          | _ -> error cur "expected ',' or ']'"
        in
        Arr (elements [])
      end
  | Some '"' -> Str (parse_string cur)
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number cur)
  | Some c -> error cur (Printf.sprintf "unexpected character '%c'" c)

let parse s =
  let cur = { s; pos = 0 } in
  match parse_value cur with
  | v ->
      skip_ws cur;
      if cur.pos < String.length s then
        Error (Printf.sprintf "trailing garbage at offset %d" cur.pos)
      else Ok v
  | exception Parse_error msg -> Error msg

(* ---- accessors ---------------------------------------------------------- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | Null | Bool _ | Num _ | Str _ | Arr _ -> None

let to_float = function
  | Num f -> Some f
  | Null | Bool _ | Str _ | Arr _ | Obj _ -> None

let to_string = function
  | Str s -> Some s
  | Null | Bool _ | Num _ | Arr _ | Obj _ -> None

let to_list = function
  | Arr vs -> Some vs
  | Null | Bool _ | Num _ | Str _ | Obj _ -> None

let float_member key v = Option.bind (member key v) to_float
let string_member key v = Option.bind (member key v) to_string

(* ---- writers ------------------------------------------------------------ *)

(* JSON has no nan/inf; those become null. %.17g round-trips doubles, so a
   rerun of the same simulation serializes to identical bytes. *)
let float f =
  if Float.is_nan f || Float.abs f = Float.infinity then "null"
  else Printf.sprintf "%.17g" f

let opt_float = function None -> "null" | Some f -> float f

(* Bytes from 0x80 up pass through unchanged: a UTF-8 name stays UTF-8. *)
let string s =
  let buf = Buffer.create (String.length s + 10) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf
