type t =
  | Null
  | Bool of bool
  | Number of string
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Bad of int

(* A strict RFC 8259 grammar in which every production returns the
   value it scanned. Raw lexemes are sliced straight out of the input so
   nothing is normalised away. *)
let parse (s : string) : (t, int) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let fail () = raise (Bad !pos) in
  let expect c = if peek () = Some c then advance () else fail () in
  (* returns the raw bytes between the quotes *)
  let parse_string () =
    expect '"';
    let start = !pos in
    let rec loop () =
      match peek () with
      | None -> fail ()
      | Some '"' ->
        let raw = String.sub s start (!pos - start) in
        advance ();
        raw
      | Some '\\' ->
        advance ();
        ( match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail ()
          done
        | _ -> fail () );
        loop ()
      | Some c when Char.code c < 0x20 -> fail ()
      | Some _ ->
        advance ();
        loop ()
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let saw = ref false in
      let rec d () =
        match peek () with
        | Some '0' .. '9' ->
          saw := true;
          advance ();
          d ()
        | _ -> ()
      in
      d ();
      if not !saw then fail ()
    in
    (* RFC 8259 int: "0" or a nonzero digit followed by digits — one
       place this reader is stricter than the old smoke scanner *)
    ( match peek () with
    | Some '0' -> advance ()
    | Some '1' .. '9' -> digits ()
    | _ -> fail () );
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    ( match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> () );
    String.sub s start (!pos - start)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Object []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          let acc = (key, v) :: acc in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members acc
          | Some '}' ->
            advance ();
            Object (List.rev acc)
          | _ -> fail ()
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Array []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          let acc = v :: acc in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements acc
          | Some ']' ->
            advance ();
            Array (List.rev acc)
          | _ -> fail ()
        in
        elements []
      end
    | Some '"' -> String (parse_string ())
    | Some 't' ->
      String.iter expect "true";
      Bool true
    | Some 'f' ->
      String.iter expect "false";
      Bool false
    | Some 'n' ->
      String.iter expect "null";
      Null
    | Some ('-' | '0' .. '9') -> Number (parse_number ())
    | _ -> fail ()
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos = n then Ok v else Error !pos
  with Bad at -> Error at

let parse_exn s =
  match parse s with
  | Ok v -> v
  | Error at -> failwith (Printf.sprintf "invalid JSON at byte %d" at)

let of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | contents -> (
    match parse contents with
    | Ok v -> Ok v
    | Error at -> Error (Printf.sprintf "%s: invalid JSON at byte %d" path at) )

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Number raw -> Buffer.add_string b raw
  | String raw ->
    Buffer.add_char b '"';
    Buffer.add_string b raw;
    Buffer.add_char b '"'
  | Array vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        to_buffer b v)
      vs;
    Buffer.add_char b ']'
  | Object ms ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        Buffer.add_string b k;
        Buffer.add_string b "\":";
        to_buffer b v)
      ms;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  to_buffer b v;
  Buffer.contents b

let member key = function
  | Object ms -> List.assoc_opt key ms
  | _ -> None

let find_path path j =
  List.fold_left
    (fun acc key -> Option.bind acc (member key))
    (Some j) path

let number = function
  | Number raw -> float_of_string_opt raw
  | _ -> None

let unescape raw =
  let n = String.length raw in
  let b = Buffer.create n in
  let add_utf8 cp =
    (* good enough for the BMP; artifacts never write surrogate pairs *)
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let rec loop i =
    if i < n then
      match raw.[i] with
      | '\\' when i + 1 < n -> (
        match raw.[i + 1] with
        | '"' -> Buffer.add_char b '"'; loop (i + 2)
        | '\\' -> Buffer.add_char b '\\'; loop (i + 2)
        | '/' -> Buffer.add_char b '/'; loop (i + 2)
        | 'b' -> Buffer.add_char b '\b'; loop (i + 2)
        | 'f' -> Buffer.add_char b '\012'; loop (i + 2)
        | 'n' -> Buffer.add_char b '\n'; loop (i + 2)
        | 'r' -> Buffer.add_char b '\r'; loop (i + 2)
        | 't' -> Buffer.add_char b '\t'; loop (i + 2)
        | 'u' when i + 5 < n ->
          add_utf8 (int_of_string ("0x" ^ String.sub raw (i + 2) 4));
          loop (i + 6)
        | c -> Buffer.add_char b c; loop (i + 2)
      )
      | c ->
        Buffer.add_char b c;
        loop (i + 1)
  in
  loop 0;
  Buffer.contents b

let string_value = function
  | String raw -> Some (unescape raw)
  | _ -> None
