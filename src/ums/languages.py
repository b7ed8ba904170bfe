"""Built-in registry of natural-language codes.

Ships the complete ISO 639-1 two-letter set plus a pragmatic subset of
ISO 639-2/T three-letter codes.  Only natural languages belong here;
programming-language names are deliberately not codes, so
:func:`ums.model.language_code` rejects them.  :data:`LANGUAGE_CODES`
maps each code to the registry's own string, which every record that
holds the code then shares.
"""

from __future__ import annotations

ISO_639_1 = frozenset(
    """
    aa ab ae af ak am an ar as av ay az
    ba be bg bh bi bm bn bo br bs
    ca ce ch co cr cs cu cv cy
    da de dv dz
    ee el en eo es et eu
    fa ff fi fj fo fr fy
    ga gd gl gn gu gv
    ha he hi ho hr ht hu hy hz
    ia id ie ig ii ik io is it iu
    ja jv
    ka kg ki kj kk kl km kn ko kr ks ku kv kw ky
    la lb lg li ln lo lt lu lv
    mg mh mi mk ml mn mr ms mt my
    na nb nd ne ng nl nn no nr nv ny
    oc oj om or os
    pa pi pl ps pt
    qu
    rm rn ro ru rw
    sa sc sd se sg si sk sl sm sn so sq sr ss st su sv sw
    ta te tg th ti tk tl tn to tr ts tt tw ty
    ug uk ur uz
    ve vi vo
    wa wo
    xh
    yi yo
    za zh zu
    """.split()
)

ISO_639_2 = frozenset(
    """
    ara ben bul ces dan deu ell eng epo est fas fin fra heb hin hun ind
    ita jpn kor lat lav lit msa nld nor pol por ron rus slk slv spa srp
    swa swe tha tur ukr urd vie zho
    """.split()
)

#: each registered code -> the registry's string for it
LANGUAGE_CODES = {code: code for code in ISO_639_1 | ISO_639_2}
