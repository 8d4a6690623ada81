(* Conflicts carry the offending NF names AND the 1-based index of the
   rule (in [policy.rules] order) that triggered them, so an operator
   editing a policy file can jump straight to the bad line. Binding
   problems name the binding instead — NF(...) lines are keyed by
   instance name, not position. *)

type conflict =
  | Unknown_nf of { name : string; rule : int }
  | Unknown_kind of string * string
  | Duplicate_binding of string
  | Order_cycle of { names : string list; rules : int list }
  | Priority_both_ways of { a : string; b : string; rules : int * int }
  | Position_conflict of { name : string; rules : int * int }
  | Position_order_conflict of { pinned : string; other : string; rule : int }
  | Self_rule of { name : string; rule : int }
  | Admission_conflict of { classes : int * int; rules : int * int }
  | Admission_negative of { cls : int; rule : int }

let pp_conflict fmt = function
  | Unknown_nf { name; rule } ->
      Format.fprintf fmt "rule #%d references unknown NF %S" rule name
  | Unknown_kind (n, k) -> Format.fprintf fmt "NF %S has unregistered type %S" n k
  | Duplicate_binding n -> Format.fprintf fmt "NF %S bound more than once" n
  | Order_cycle { names; rules } ->
      Format.fprintf fmt "precedence cycle: %s (rules %s)"
        (String.concat " -> " (names @ [ List.hd names ]))
        (String.concat ", " (List.map (Printf.sprintf "#%d") rules))
  | Priority_both_ways { a; b; rules = i, j } ->
      Format.fprintf fmt "rules #%d and #%d set conflicting priorities between %S and %S" i
        j a b
  | Position_conflict { name; rules = i, j } ->
      Format.fprintf fmt "rules #%d and #%d pin NF %S both first and last" i j name
  | Position_order_conflict { pinned; other; rule } ->
      Format.fprintf fmt "rule #%d orders %S against %S, contradicting its pinned position"
        rule other pinned
  | Self_rule { name; rule } ->
      Format.fprintf fmt "rule #%d relates NF %S to itself" rule name
  | Admission_conflict { classes = a, b; rules = i, j } ->
      Format.fprintf fmt
        "rules #%d and #%d declare conflicting admission classes (%d vs %d)" i j a b
  | Admission_negative { cls; rule } ->
      Format.fprintf fmt "rule #%d declares a negative admission class (%d)" rule cls

(* Tarjan's strongly-connected components over the precedence digraph. *)
let sccs nodes edges =
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let result = ref [] in
  let successors n = List.filter_map (fun (a, b) -> if a = n then Some b else None) edges in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v true;
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.find_opt on_stack w = Some true then
          Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (successors v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec popped acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.replace on_stack w false;
            if w = v then w :: acc else popped (w :: acc)
      in
      result := popped [] :: !result
    end
  in
  List.iter (fun n -> if not (Hashtbl.mem index n) then strongconnect n) nodes;
  !result

let check (policy : Rule.policy) =
  let conflicts = ref [] in
  let add c = conflicts := c :: !conflicts in
  (* 1-based rule indexes, matching the order an operator reads them in. *)
  let irules = List.mapi (fun i r -> (i + 1, r)) policy.rules in
  (* Bindings: duplicates and unknown registry types. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (name, kind) ->
      if Hashtbl.mem seen name then add (Duplicate_binding name) else Hashtbl.add seen name ();
      if Nfp_nf.Registry.find kind = None then add (Unknown_kind (name, kind)))
    policy.bindings;
  (* Name resolution: a name is known if bound, or if it is itself a
     registered NF type (the paper writes Order(VPN, before, Monitor)
     directly over type names). Report each unknown name once, at the
     first rule that mentions it. *)
  let known name =
    List.mem_assoc name policy.bindings || Nfp_nf.Registry.find name <> None
  in
  let reported = Hashtbl.create 16 in
  List.iter
    (fun (i, r) ->
      let mentioned =
        match r with
        | Rule.Order (a, b) | Rule.Priority (a, b) -> [ a; b ]
        | Rule.Position (n, _) -> [ n ]
        | Rule.Admit _ -> []
      in
      List.iter
        (fun n ->
          if (not (known n)) && not (Hashtbl.mem reported n) then begin
            Hashtbl.add reported n ();
            add (Unknown_nf { name = n; rule = i })
          end)
        mentioned)
    irules;
  (* Self rules. *)
  List.iter
    (fun (i, r) ->
      match r with
      | Rule.Order (a, b) | Rule.Priority (a, b) ->
          if a = b then add (Self_rule { name = a; rule = i })
      | Rule.Position _ | Rule.Admit _ -> ())
    irules;
  (* Admission classes: negative classes are malformed; two Admit rules
     with different classes contradict (the first one wins downstream,
     so the operator must pick). *)
  let admits =
    List.filter_map
      (fun (i, r) -> match r with Rule.Admit c -> Some (i, c) | _ -> None)
      irules
  in
  List.iter
    (fun (i, c) -> if c < 0 then add (Admission_negative { cls = c; rule = i }))
    admits;
  (match admits with
  | (i, c) :: rest -> (
      match List.find_opt (fun (_, c') -> c' <> c) rest with
      | Some (j, c') -> add (Admission_conflict { classes = (c, c'); rules = (i, j) })
      | None -> ())
  | [] -> ());
  (* Priority in both directions. *)
  let prios =
    List.filter_map
      (fun (i, r) -> match r with Rule.Priority (a, b) -> Some (i, (a, b)) | _ -> None)
      irules
  in
  List.iter
    (fun (i, (a, b)) ->
      if a < b then
        match List.find_opt (fun (_, p) -> p = (b, a)) prios with
        | Some (j, _) when List.exists (fun (_, p) -> p = (a, b)) prios ->
            add (Priority_both_ways { a; b; rules = (i, j) })
        | _ -> ())
    prios;
  (* Position conflicts. *)
  let positions =
    List.filter_map
      (fun (i, r) -> match r with Rule.Position (n, p) -> Some (i, (n, p)) | _ -> None)
      irules
  in
  List.iter
    (fun (i, (n, p)) ->
      if p = Rule.First then
        match List.find_opt (fun (_, q) -> q = (n, Rule.Last)) positions with
        | Some (j, _) -> add (Position_conflict { name = n; rules = (i, j) })
        | None -> ())
    positions;
  (* Order rules contradicting pinned positions. *)
  let pinned_at n p = List.exists (fun (_, q) -> q = (n, p)) positions in
  List.iter
    (fun (i, r) ->
      match r with
      | Rule.Order (a, b) when a <> b ->
          if pinned_at a Rule.Last then
            add (Position_order_conflict { pinned = a; other = b; rule = i });
          if pinned_at b Rule.First then
            add (Position_order_conflict { pinned = b; other = a; rule = i })
      | _ -> ())
    irules;
  (* Precedence cycles: Order(a,b) is a->b; Priority(hi,lo) makes lo
     logically earlier, lo->hi. Each cycle reports every rule whose
     edge stays inside the component. *)
  let iedges =
    List.filter_map
      (fun (i, r) ->
        match r with
        | Rule.Order (a, b) when a <> b -> Some (i, (a, b))
        | Rule.Priority (hi, lo) when hi <> lo -> Some (i, (lo, hi))
        | _ -> None)
      irules
  in
  let edges = List.map snd iedges in
  let names = Rule.nfs_of_rules policy.rules in
  let self_loop n = List.mem (n, n) edges in
  let cycle ns =
    let inside =
      List.filter_map
        (fun (i, (a, b)) -> if List.mem a ns && List.mem b ns then Some i else None)
        iedges
    in
    add (Order_cycle { names = ns; rules = List.sort_uniq compare inside })
  in
  List.iter
    (fun component ->
      match component with
      | [ n ] -> if self_loop n then cycle [ n ]
      | [] -> ()
      | ns -> cycle ns)
    (sccs names edges);
  List.rev !conflicts

let suggest = function
  | Unknown_nf { name; rule } ->
      Printf.sprintf "bind %S with an NF(%s, <Type>) line or fix rule #%d to use a registered type name"
        name name rule
  | Unknown_kind (_, k) ->
      Printf.sprintf
        "register %S first (Registry.register, optionally with an inspector-derived profile)" k
  | Duplicate_binding n -> Printf.sprintf "remove one of the NF(%s, ...) lines" n
  | Order_cycle { names; rules } ->
      Printf.sprintf "drop one of rules %s to break the cycle among %s"
        (String.concat ", " (List.map (Printf.sprintf "#%d") rules))
        (String.concat ", " names)
  | Priority_both_ways { a; b; rules = i, j } ->
      Printf.sprintf "keep a single Priority direction between %s and %s (rule #%d or #%d)" a
        b i j
  | Position_conflict { name; rules = i, j } ->
      Printf.sprintf "pin %s either first or last, not both (drop rule #%d or #%d)" name i j
  | Position_order_conflict { pinned; other; rule } ->
      Printf.sprintf "either unpin %s or remove rule #%d relating it to %s" pinned rule other
  | Self_rule { name; rule } ->
      Printf.sprintf "remove rule #%d relating %s to itself" rule name
  | Admission_conflict { classes = _, _; rules = i, j } ->
      Printf.sprintf "keep a single Admit class for the chain (drop rule #%d or #%d)" i j
  | Admission_negative { cls = _; rule } ->
      Printf.sprintf "use a class >= 0 in rule #%d (0 = best effort, higher = more important)"
        rule
